// perfbench: the repository benchmark.
//
//   perfbench --workload cve-sweep|stack-churn|fleet-rollout --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--git-sha SHA]
//
// Prints notes and every metric by name with its unit, an environment
// stamp, and as its last line one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when an output check fails, 2 on bad arguments.

#include <malloc.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"

#ifndef KS_PERFBENCH_COMPILER
#define KS_PERFBENCH_COMPILER "unknown"
#endif
#ifndef KS_PERFBENCH_BUILD_TYPE
#define KS_PERFBENCH_BUILD_TYPE ""
#endif

namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

// Shortest round-trip decimal form; JSON has no NaN or infinity.
std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cve-sweep|stack-churn|fleet-rollout --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string git_sha = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
      if (!have_seed) {
        return Usage("--seed takes a whole number");
      }
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0 && config.seconds <= 120)) {
        return Usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) {
    return Usage("--seed is required");
  }

  // glibc's dynamic mmap threshold serves the first large buffer (a 24 MB
  // machine image) with mmap and, after the first free, later ones from
  // the heap; where a run's peak RSS lands then depends on the order of
  // earlier frees. Pinning the thresholds at the values the dynamic rule
  // settles on keeps that steady state from the start.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);

  const std::string build_type = KS_PERFBENCH_BUILD_TYPE;
  std::string env = "{\"workload\":" + Quoted(config.workload) +
                    ",\"seed\":" + std::to_string(config.seed) +
                    ",\"seconds\":" + Number(config.seconds) +
                    ",\"trace\":" + (config.trace ? "1" : "0") +
                    ",\"git_sha\":" + Quoted(git_sha) + ",\"nproc\":" +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ",\"compiler\":" + Quoted(KS_PERFBENCH_COMPILER) +
                    ",\"build_type\":" + Quoted(build_type) +
                    ",\"optimized\":" + (kOptimized ? "true" : "false") + "}";
  if (!kOptimized) {
    const char* banner =
        "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!\n"
        "!! WARNING: perfbench was built WITHOUT optimization (build type  \n"
        "!! '%s'). Its timings do not describe the program; rebuild with   \n"
        "!! CMAKE_BUILD_TYPE=RelWithDebInfo or Release.                     \n"
        "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!\n";
    std::fprintf(stderr, banner, build_type.c_str());
    std::printf(banner, build_type.c_str());
  }

  perfbench::Result result;
  if (config.workload == "cve-sweep") {
    result = perfbench::RunCveSweep(config);
  } else if (config.workload == "stack-churn") {
    result = perfbench::RunStackChurn(config);
  } else if (config.workload == "fleet-rollout") {
    result = perfbench::RunFleetRollout(config);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }

  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  const std::vector<perfbench::Metric>& reported =
      config.trace ? result.per_layer : result.end_to_end;
  for (const perfbench::Metric& m : result.end_to_end) {
    std::printf("%-8s %-32s %16.6f %s\n", "e2e", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (config.trace) {
    for (const perfbench::Metric& m : result.per_layer) {
      std::printf("%-8s %-32s %16.6f %s\n", "layer", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const std::string& violation : result.violations) {
    std::printf("CHECK FAILED: %s\n", violation.c_str());
  }
  const bool correct = result.violations.empty();
  std::printf("env %s\n", env.c_str());
  std::string metrics;
  for (const perfbench::Metric& m : reported) {
    metrics += (metrics.empty() ? "" : ",") + Quoted(m.name) +
               ":{\"value\":" + Number(m.value) +
               ",\"unit\":" + Quoted(m.unit) + "}";
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
