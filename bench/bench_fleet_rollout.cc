// bench_fleet_rollout: the deployment story at fleet scale.
//
// The paper hot-patches one machine; a distro pushes the same package to
// thousands. This bench drives the fleet orchestrator (src/fleet) over
// mixed-release fleets of 10, 100 and 1000 machines — releases assigned
// round-robin from the corpus kernel line, so run-pre matching skips the
// stale nodes — and reports rollout throughput (machines/sec) and the
// per-machine stop-window p99 read back from the metrics registry
// (fleet.node_pause_ns, Histogram::ApproxPercentile). The registry is
// reset between sizes so each row is one rollout's distribution.
//
// It then drills the canary-failure path on a 16-node fleet: the canary
// wave applies with an armed fault plan, trips the abort threshold, and
// the orchestrator rolls every patched node back. The bench snapshots
// every machine's kernel image before the doomed rollout and exits
// nonzero unless the rollout aborted AND every node's image is
// byte-identical afterward — zero partially patched machines.
//
// --report-dir=DIR writes per-size rollout reports (RolloutReport::ToJson)
// plus a metrics.json snapshot of the final drill.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/file.h"
#include "base/metrics.h"
#include "corpus/corpus.h"
#include "fleet/corpus_fleet.h"
#include "fleet/rollout.h"
#include "ksplice/create.h"

namespace {

std::vector<uint8_t> KernelImage(const kvm::Machine& machine) {
  ks::Result<std::vector<uint8_t>> bytes = machine.ReadBytes(
      machine.config().kernel_base,
      machine.kernel_end() - machine.config().kernel_base);
  return bytes.ok() ? *bytes : std::vector<uint8_t>{};
}

ks::Result<ksplice::UpdatePackage> BuildPackage(const char* cve) {
  for (const corpus::Vulnerability& vuln : corpus::Vulnerabilities()) {
    if (vuln.cve != cve) {
      continue;
    }
    KS_ASSIGN_OR_RETURN(std::string patch, corpus::PatchFor(vuln));
    ksplice::CreateOptions options;
    options.compile = corpus::RunBuildOptions();
    options.compile.cache = &corpus::SharedObjectCache();
    options.id = vuln.cve;
    KS_ASSIGN_OR_RETURN(
        ksplice::CreateResult created,
        ksplice::CreateUpdate(corpus::KernelSource(), patch, options));
    return std::move(created.package);
  }
  return ks::NotFound(std::string("no corpus entry for ") + cve);
}

// Writes DIR/NAME when --report-dir was given. False, after saying why on
// stderr, when the write failed.
bool WriteReport(const std::string& dir, const std::string& name,
                 const std::string& contents) {
  if (dir.empty()) {
    return true;
  }
  ks::Status written = ks::WriteFile(dir + "/" + name, contents);
  if (!written.ok()) {
    std::fprintf(stderr, "report write failed: %s\n",
                 written.ToString().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string report_dir;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--report-dir=", 0) == 0) {
      report_dir = arg.substr(13);
    }
  }

  // CVE-2008-0600 (vmsplice): no corpus release drifted its unit, so the
  // throughput rollouts patch the whole fleet.
  ks::Result<ksplice::UpdatePackage> package = BuildPackage("CVE-2008-0600");
  if (!package.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 package.status().ToString().c_str());
    return 1;
  }
  std::vector<ksplice::UpdatePackage> packages = {*package};

  std::printf("=== Fleet rollout: one package, mixed-release fleets ===\n\n");
  std::printf("%7s %8s %8s %6s %7s %13s %12s %12s\n", "nodes", "patched",
              "stale", "waves", "wall s", "machines/sec", "p99 pause",
              "max pause");

  for (size_t nodes : {size_t{10}, size_t{100}, size_t{1000}}) {
    // Each size is its own distribution in the registry histogram.
    ks::Metrics().ResetAll();

    fleet::CorpusFleetOptions fleet_options;
    fleet_options.nodes = nodes;
    fleet_options.seed = 42;
    ks::Result<fleet::Fleet> fleet = fleet::MakeCorpusFleet(fleet_options);
    if (!fleet.ok()) {
      std::fprintf(stderr, "fleet boot failed: %s\n",
                   fleet.status().ToString().c_str());
      return 1;
    }

    fleet::RolloutPlan plan;
    plan.canary_fraction = 0.05;
    plan.wave_size = 32;
    plan.max_in_flight = 8;
    plan.seed = 42;
    ks::Result<ksplice::RolloutReport> report =
        fleet::RunRollout(*fleet, packages, plan);
    if (!report.ok()) {
      std::fprintf(stderr, "rollout failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    if (report->aborted || report->failed != 0 ||
        report->patched + report->already_applied + report->skipped_stale !=
            report->fleet_size) {
      std::fprintf(stderr, "unexpected outcome at %zu nodes:\n%s\n", nodes,
                   report->ToJson().c_str());
      return 1;
    }

    // The acceptance numbers come from the registry, not the report: the
    // per-node stop windows land in fleet.node_pause_ns.
    const ks::Histogram& pauses =
        ks::Metrics().GetHistogram("fleet.node_pause_ns");
    // ApproxPercentile reports the containing bucket's upper bound, which
    // can exceed the exact max; clamp for a sane table.
    uint64_t p99_ns =
        std::min(pauses.ApproxPercentile(0.99), pauses.max());
    std::printf("%7zu %8u %8u %6u %7.3f %13.1f %9.3f ms %9.3f ms\n", nodes,
                report->patched, report->skipped_stale, report->waves,
                static_cast<double>(report->wall_ns) / 1e9,
                report->nodes_per_sec,
                static_cast<double>(p99_ns) / 1e6,
                static_cast<double>(pauses.max()) / 1e6);
    if (!WriteReport(report_dir,
                     "rollout-" + std::to_string(nodes) + ".json",
                     report->ToJson() + "\n")) {
      return 1;
    }
  }

  // ---- Canary-failure drill: abort must leave zero partially patched.
  std::printf("\n=== Canary failure drill: 16 nodes, doomed canary ===\n");
  ks::Metrics().ResetAll();
  fleet::CorpusFleetOptions drill_options;
  drill_options.nodes = 16;
  drill_options.doomed = 1;  // the first node in rollout order
  drill_options.seed = 7;
  ks::Result<fleet::Fleet> drill = fleet::MakeCorpusFleet(drill_options);
  if (!drill.ok()) {
    std::fprintf(stderr, "drill fleet boot failed: %s\n",
                 drill.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<uint8_t>> images;
  for (size_t i = 0; i < drill->size(); ++i) {
    images.push_back(KernelImage(drill->machine(i)));
  }

  fleet::RolloutPlan doomed_plan;
  doomed_plan.canary_fraction = 0.25;  // 4-node canary wave
  doomed_plan.wave_size = 4;
  doomed_plan.max_in_flight = 4;
  doomed_plan.seed = 7;
  doomed_plan.canary_fault_plan = "ksplice.txn.pre_apply=always";
  ks::Result<ksplice::RolloutReport> aborted =
      fleet::RunRollout(*drill, packages, doomed_plan);
  if (!aborted.ok()) {
    std::fprintf(stderr, "drill rollout failed: %s\n",
                 aborted.status().ToString().c_str());
    return 1;
  }
  if (!WriteReport(report_dir, "rollout-drill.json",
                   aborted->ToJson() + "\n") ||
      !WriteReport(report_dir, "metrics.json", ks::Metrics().ToJson())) {
    return 1;
  }

  int violations = 0;
  if (!aborted->aborted || aborted->tripped_wave != 0) {
    std::fprintf(stderr, "drill did not trip the canary wave\n");
    ++violations;
  }
  if (aborted->patched != 0) {
    std::fprintf(stderr, "%u node(s) left patched after abort\n",
                 aborted->patched);
    ++violations;
  }
  for (size_t i = 0; i < drill->size(); ++i) {
    if (KernelImage(drill->machine(i)) != images[i]) {
      std::fprintf(stderr, "node %s not byte-identical after rollback\n",
                   drill->spec(i).id.c_str());
      ++violations;
    }
    if (!drill->core(i).AppliedIds().empty()) {
      std::fprintf(stderr, "node %s still has applied updates\n",
                   drill->spec(i).id.c_str());
      ++violations;
    }
  }
  std::printf("aborted at wave %d: %u failed, %u rolled back, %u never "
              "attempted; %s\n",
              aborted->tripped_wave, aborted->failed, aborted->rolled_back,
              aborted->not_attempted,
              violations == 0
                  ? "every machine byte-identical to its pre-rollout image"
                  : "RESTORE VIOLATIONS — see stderr");
  return violations == 0 ? 0 : 1;
}
