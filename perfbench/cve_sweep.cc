// cve-sweep: the paper's §6.2 pipeline over all 64 CVEs, four workers.
//
// Each CVE boots a fresh kernel, runs its exploit, builds and lints the
// update, applies it, re-runs the exploit, runs the stress workload and
// undoes the update. Table-1 entries fall back to the amended patch the
// way corpus::Evaluate does. This is the only workload where boot (kvm)
// and compilation (kcc) dominate.
//
// Every pass gets a fresh object cache holding the pre kernel's objects
// and no post unit, which is what a build host sees for each new patch;
// warming it happens between passes, outside the timed window.

#include <algorithm>

#include "base/strings.h"
#include "pipeline.h"

namespace perfbench {
namespace {

constexpr int kWorkers = 4;
constexpr int kSetupRepeats = 9;
constexpr int kCorpusSize = 64;
constexpr int kPlainExpected = 56;  // §6.2: applied without new code
constexpr int kCustomExpected = 8;  // Table 1

// What one pass saw, beyond the pipeline tally.
struct PassOutcome {
  std::mutex mu;
  int plain = 0;
  int custom = 0;
  int success = 0;
  int blocked = 0;
  size_t max_threads = 0;
  double busy_ms = 0;
  std::vector<std::string> errors;
};

// One CVE through the whole pipeline; true when it met every §6.2
// criterion: applied, exploit worked before and not after, stress clean,
// and the update undone.
ks::Result<bool> Evaluate(const corpus::Vulnerability& vuln,
                          kcc::ObjectCache& cache, Tally& tally,
                          PassOutcome& pass) {
  KS_ASSIGN_OR_RETURN(std::unique_ptr<kvm::Machine> machine,
                      TimedBoot(tally));
  ksplice::KspliceCore core(machine.get());
  KS_ASSIGN_OR_RETURN(bool before, TimedExploit(*machine, vuln, tally));

  // The original fix first; the amended patch when the original is
  // refused by the data-semantics gate or leaves the exploit working.
  std::string id = vuln.cve;
  KS_ASSIGN_OR_RETURN(std::string patch, TimedPatch(vuln, false, tally));
  KS_ASSIGN_OR_RETURN(
      std::optional<ksplice::UpdatePackage> package,
      CreateAndLint(corpus::KernelSource(), patch, id, cache, tally));
  bool applied = package.has_value();
  bool after = true;
  if (applied) {
    KS_RETURN_IF_ERROR(TimedApply(core, *package, tally).status());
    KS_ASSIGN_OR_RETURN(after, TimedExploit(*machine, vuln, tally));
  }
  bool custom = (!applied || after) && vuln.needs_custom_code;
  if (custom) {
    if (applied) {
      KS_RETURN_IF_ERROR(TimedUndo(core, id, tally).status());
    }
    id = vuln.cve + "-custom";
    KS_ASSIGN_OR_RETURN(std::string amended, TimedPatch(vuln, true, tally));
    KS_ASSIGN_OR_RETURN(package, CreateAndLint(corpus::KernelSource(),
                                               amended, id, cache, tally));
    if (!package.has_value()) {
      return ks::Internal("amended patch refused");
    }
    KS_RETURN_IF_ERROR(TimedApply(core, *package, tally).status());
    applied = true;
    KS_ASSIGN_OR_RETURN(after, TimedExploit(*machine, vuln, tally));
  }
  if (!applied) {
    return ks::Internal("update refused");
  }
  ks::Status stress = TimedStress(*machine, tally);
  KS_RETURN_IF_ERROR(TimedUndo(core, id, tally).status());

  std::lock_guard<std::mutex> lock(pass.mu);
  (custom ? pass.custom : pass.plain) += 1;
  pass.blocked += before && !after ? 1 : 0;
  pass.max_threads = std::max(pass.max_threads, machine->Threads().size());
  if (!stress.ok()) {
    pass.errors.push_back(vuln.cve + ": " + stress.ToString());
  }
  bool success = before && !after && stress.ok();
  pass.success += success ? 1 : 0;
  return success;
}

}  // namespace

Result RunCveSweep(const RunConfig& config) {
  Result result;
  Summary summary;
  summary.lanes = kWorkers;
  const std::vector<corpus::Vulnerability>& vulns = corpus::Vulnerabilities();
  if (!result.Check(static_cast<int>(vulns.size()) == kCorpusSize,
                    ks::StrPrintf("corpus has %zu CVEs, expected %d",
                                  vulns.size(), kCorpusSize))) {
    return result;
  }

  // Set-up: warm a pre-build cache and boot one kernel. The first
  // repetition also builds the run kernel, once per process.
  ks::ThreadPool workers(kWorkers);
  std::unique_ptr<kcc::ObjectCache> cache;
  for (int i = 0; i < kSetupRepeats; ++i) {
    uint64_t start = NowNs();
    ks::Result<std::unique_ptr<kcc::ObjectCache>> warmed =
        WarmPreCache(workers);
    ks::Result<std::unique_ptr<kvm::Machine>> booted = corpus::BootKernel();
    summary.setup_s.Add(static_cast<double>(NowNs() - start) / 1e9);
    ks::Status status = warmed.ok() ? booted.status() : warmed.status();
    if (!result.Check(status.ok(), "set-up failed: " + status.ToString())) {
      return result;
    }
    cache = std::move(warmed).value();
  }

  Rng rng(config.seed);
  std::vector<size_t> order(vulns.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  Tally total;
  std::map<std::string, uint64_t> counters;
  double busy_ms = 0;
  size_t max_threads = 0;
  int passes = 0;
  TimedLoop loop = RunTimed(config, [&] {
    if (cache == nullptr) {
      ks::Result<std::unique_ptr<kcc::ObjectCache>> warmed =
        WarmPreCache(workers);
      result.Check(warmed.ok(), "pre cache warm failed");
      cache = warmed.ok() ? std::move(warmed).value()
                          : std::make_unique<kcc::ObjectCache>();
    }
    Shuffle(order, rng);
    ++passes;
    Tally tally;
    PassOutcome pass;
    CounterDelta delta;
    uint64_t start = NowNs();
    for (size_t index : order) {
      workers.Submit([&, index] {
        const corpus::Vulnerability& vuln = vulns[index];
        Span span("cve");
        ks::Result<bool> ok = Evaluate(vuln, *cache, tally, pass);
        std::lock_guard<std::mutex> lock(pass.mu);
        pass.busy_ms += span.ElapsedMs();
        if (!ok.ok()) {
          pass.errors.push_back(vuln.cve + ": " + ok.status().ToString());
        }
      });
    }
    workers.Wait();
    double wall_ms = static_cast<double>(NowNs() - start) / 1e6;
    std::map<std::string, uint64_t> grew = delta.Take();
    cache.reset();
    summary.ops_per_s.Add(static_cast<double>(order.size()) / wall_ms * 1e3);

    result.attempted += order.size();
    result.failed += order.size() - static_cast<size_t>(pass.success);
    for (const std::string& error : pass.errors) {
      result.Check(false, ks::StrPrintf("pass %d: %s", passes, error.c_str()));
    }
    result.Check(
        pass.plain == kPlainExpected && pass.custom == kCustomExpected,
        ks::StrPrintf("pass %d: %d applied without new code and %d custom "
                      "(expected %d and %d)",
                      passes, pass.plain, pass.custom, kPlainExpected,
                      kCustomExpected));
    result.Check(pass.success == kCorpusSize && pass.blocked == kCorpusSize,
                 ks::StrPrintf("pass %d: %d/64 successes, %d/64 exploits "
                               "blocked",
                               passes, pass.success, pass.blocked));
    result.Check(Get(grew, "kvm.extable_fixups") > 0,
                 ks::StrPrintf("pass %d: no exception-table fixups", passes));
    for (const auto& [name, value] : grew) {
      counters[name] += value;
    }
    tally.MergeInto(total);
    busy_ms += pass.busy_ms;
    max_threads = std::max(max_threads, pass.max_threads);
    return wall_ms;
  });

  const double ops = static_cast<double>(result.attempted);
  const double wall_ms = static_cast<double>(loop.measured_ns) / 1e6;
  summary.create_ms = total.create_ms;
  summary.apply_ms = total.apply_ms;
  summary.undo_ms = total.undo_ms;
  FillPipelineLayers(total, counters, ops, summary.layers);
  summary.layers.threads = static_cast<double>(max_threads);
  summary.layers.worker_busy_frac = Ratio(busy_ms, kWorkers * wall_ms);
  result.Note(ks::StrPrintf(
      "%d passes of 64 CVEs on %d workers: %.3f CVE/s (cve_per_s, median "
      "pass), worker "
      "busy %.1f%%; every pass checked for 56 applied without new code, 8 "
      "custom, 64/64 successes, 64/64 exploits blocked, extable fixups > 0 "
      "(%llu fixups over the run)",
      passes, kWorkers, summary.ops_per_s.Median(),
      100 * summary.layers.worker_busy_frac,
      static_cast<unsigned long long>(Get(counters, "kvm.extable_fixups"))));
  Finish(config, summary, loop, result);
  return result;
}

}  // namespace perfbench
