// fleet-rollout: wave/canary rollouts over a 256-node mixed-release fleet
// of 4 MB nodes (about 1 GB), built in set-up.
//
// Each rollout ships a seeded draw of 4 packages, created afresh just
// before it (5% canary, waves of 32, 4 nodes in flight, a 20k-tick stress
// soak per node), then a timed fleet-wide rollback undoes every node. It
// exercises fleet orchestration, the watchdog soak and per-node run-pre,
// including the stale-skip path: a draw that touches a unit some release
// drifted is skipped on that release's nodes. Boot and kcc do no work
// inside the rollout and rollback timings.
//
// Each soak spawns one thread per node, and kvm::Machine never reclaims
// dead threads, so a fleet serves a fixed number of rollouts (counted,
// not timed): one fleet life. The run repeats whole fleet lives, each on a
// freshly built fleet, until its measuring time is used.

#include <algorithm>
#include <set>

#include "base/strings.h"
#include "fleet/corpus_fleet.h"
#include "fleet/rollout.h"
#include "pipeline.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 9;
constexpr int kSetupJobs = 4;
constexpr size_t kNodes = 256;
constexpr uint32_t kNodeMemory = 4u << 20;
constexpr size_t kDraw = 4;
constexpr int kWarmupRollouts = 6;
constexpr int kRolloutsPerFleet = 32;
constexpr uint64_t kSoakTicks = 20000;

// The corpus packages a fleet ships, in corpus order: the fix each CVE's
// §6.2 evaluation ends up applying (the amended patch for Table-1 entries).
// They are created on kSetupJobs threads, from one fresh cache.
ks::Result<std::vector<ksplice::UpdatePackage>> BuildPackages(Tally& tally) {
  const std::vector<corpus::Vulnerability>& vulns = corpus::Vulnerabilities();
  kcc::ObjectCache cache;
  std::vector<std::optional<ksplice::UpdatePackage>> built(vulns.size());
  std::vector<ks::Status> statuses(vulns.size());
  ks::ParallelFor(kSetupJobs, vulns.size(), [&](size_t i) {
    const corpus::Vulnerability& vuln = vulns[i];
    ks::Result<std::string> patch =
        TimedPatch(vuln, vuln.needs_custom_code, tally);
    if (!patch.ok()) {
      statuses[i] = patch.status();
      return;
    }
    ks::Result<std::optional<ksplice::UpdatePackage>> package =
        CreateAndLint(corpus::KernelSource(), *patch, vuln.cve, cache, tally);
    if (!package.ok()) {
      statuses[i] = package.status();
    } else if (!package->has_value()) {
      statuses[i] = ks::FailedPrecondition(vuln.cve + " refused");
    } else {
      built[i] = std::move(*package);
    }
  });
  std::vector<ksplice::UpdatePackage> packages;
  for (size_t i = 0; i < vulns.size(); ++i) {
    KS_RETURN_IF_ERROR(statuses[i]);
    packages.push_back(std::move(*built[i]));
  }
  return packages;
}

// Units a package's run-pre matching checks against the running kernel.
std::set<std::string> MatchedUnits(const ksplice::UpdatePackage& package) {
  std::set<std::string> units;
  for (const kelf::ObjectFile& helper : package.helper_objects) {
    units.insert(helper.source_name());
  }
  return units;
}

// A seeded draw of kDraw packages that patch disjoint functions.
std::vector<size_t> Draw(const std::vector<ksplice::UpdatePackage>& packages,
                         Rng& rng) {
  std::vector<size_t> order(packages.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  Shuffle(order, rng);
  std::vector<size_t> drawn;
  std::set<std::pair<std::string, std::string>> patched;
  for (size_t index : order) {
    bool overlaps = false;
    for (const ksplice::Target& target : packages[index].targets) {
      overlaps = overlaps || patched.count({target.unit, target.symbol}) != 0;
    }
    if (overlaps) {
      continue;
    }
    for (const ksplice::Target& target : packages[index].targets) {
      patched.insert({target.unit, target.symbol});
    }
    drawn.push_back(index);
    if (drawn.size() == kDraw) {
      break;
    }
  }
  return drawn;
}

// Nodes the release drift table says a draw is stale on: those whose
// release changed a unit one of the packages matches.
uint32_t PredictedStale(
    const fleet::Fleet& fleet,
    const std::vector<const ksplice::UpdatePackage*>& draw) {
  std::set<std::string> units;
  for (const ksplice::UpdatePackage* package : draw) {
    std::set<std::string> matched = MatchedUnits(*package);
    units.insert(matched.begin(), matched.end());
  }
  uint32_t stale = 0;
  for (size_t i = 0; i < fleet.size(); ++i) {
    for (const corpus::KernelVersion& version : corpus::KernelVersions()) {
      if (version.name == fleet.spec(i).version &&
          units.count(version.dev_path) != 0) {
        ++stale;
      }
    }
  }
  return stale;
}

struct FleetLife {
  fleet::Fleet fleet;
  std::vector<TextRanges> ranges;  // per node
  std::vector<std::vector<std::vector<uint8_t>>> text;  // per node, booted
  int rollouts = 0;
};

ks::Result<FleetLife> BuildFleet(uint64_t seed, Samples& build_ms) {
  uint64_t start = NowNs();
  fleet::CorpusFleetOptions options;
  options.nodes = kNodes;
  options.memory_bytes = kNodeMemory;
  options.seed = seed;
  KS_ASSIGN_OR_RETURN(fleet::Fleet built, fleet::MakeCorpusFleet(options));
  build_ms.Add(static_cast<double>(NowNs() - start) / 1e6);
  FleetLife life{std::move(built), {}, {}, 0};
  for (size_t i = 0; i < life.fleet.size(); ++i) {
    life.ranges.push_back(FunctionRanges(life.fleet.machine(i)));
    life.text.push_back(ReadText(life.fleet.machine(i), life.ranges.back()));
  }
  return life;
}

}  // namespace

Result RunFleetRollout(const RunConfig& config) {
  Result result;
  Summary summary;
  Samples build_ms;

  // Set-up: build the packages and the fleet, repeated; only the last
  // fleet is kept (one is alive at a time).
  Tally setup;
  std::vector<ksplice::UpdatePackage> packages;
  std::optional<FleetLife> life;
  for (int i = 0; i < kSetupRepeats; ++i) {
    life.reset();
    uint64_t start = NowNs();
    ks::Result<std::vector<ksplice::UpdatePackage>> built =
        BuildPackages(setup);
    ks::Result<FleetLife> fleet = BuildFleet(config.seed, build_ms);
    summary.setup_s.Add(static_cast<double>(NowNs() - start) / 1e9);
    ks::Status status = built.ok() ? fleet.status() : built.status();
    if (!result.Check(status.ok(), "set-up failed: " + status.ToString())) {
      return result;
    }
    packages = std::move(built).value();
    life.emplace(std::move(fleet).value());
  }

  Rng rng(config.seed);
  Tally creates;
  Samples rollout_ms;
  Samples rollback_ms;
  Samples node_pause_us;
  Samples undo_per_update_ms;
  double resolved_nodes = 0;
  double stale_nodes = 0;
  double waves = 0;
  double auto_reverts = 0;
  size_t max_threads = 0;
  std::map<std::string, uint64_t> counters;
  int rollouts = 0;
  int fleets = 0;
  // Rollout + rollback wall and largest node thread table, per rollout
  // index within a fleet life.
  std::vector<Samples> wall_by_index(kRolloutsPerFleet);
  std::vector<size_t> threads_by_index(kRolloutsPerFleet);

  // One rollout under one root span: creating the drawn packages, the
  // rollout and the fleet-wide rollback. Returns the span's wall ms, or -1
  // when the rollout could not run at all.
  auto rollout_once = [&](bool timed) -> double {
    fleet::Fleet& fleet = life->fleet;
    ++life->rollouts;
    // The build host creates the drawn packages afresh for every rollout,
    // so create_ms is sampled across the whole run; the set-up copies only
    // decide the draw and the stale prediction.
    const uint64_t start = NowNs();
    std::optional<Span> root(std::in_place, "rollout");
    std::vector<size_t> drawn = Draw(packages, rng);
    std::vector<ksplice::UpdatePackage> batch;
    std::vector<const ksplice::UpdatePackage*> draw;
    std::string ids;
    kcc::ObjectCache cache;
    for (size_t index : drawn) {
      const corpus::Vulnerability& vuln = corpus::Vulnerabilities()[index];
      ks::Result<std::string> patch =
          TimedPatch(vuln, vuln.needs_custom_code, creates);
      ks::Result<std::optional<ksplice::UpdatePackage>> created =
          patch.ok() ? CreateAndLint(corpus::KernelSource(), *patch, vuln.cve,
                                     cache, creates)
                     : ks::Result<std::optional<ksplice::UpdatePackage>>(
                           patch.status());
      if (!result.Check(created.ok() && created->has_value(),
                        "create " + vuln.cve + " failed")) {
        return -1;
      }
      batch.push_back(std::move(**created));
      ids += (ids.empty() ? "" : "+") + vuln.cve;
    }
    for (const ksplice::UpdatePackage& package : batch) {
      draw.push_back(&package);
    }
    fleet::RolloutPlan plan;
    plan.canary_fraction = 0.05;
    plan.wave_size = 32;
    plan.max_in_flight = 4;
    plan.seed = rng.Next() | 1;  // 0 would mean insertion order
    plan.soak_ticks = kSoakTicks;
    plan.soak_entry = "stress_main";
    plan.soak_arg = 1;
    const std::string where = ks::StrPrintf("rollout %d (%s)", rollouts + 1,
                                            ids.c_str());

    CounterDelta delta;
    ks::Result<ksplice::RolloutReport> report = [&] {
      Span span("fleet.rollout");
      return fleet::RunRollout(fleet, batch, plan);
    }();
    if (!result.Check(report.ok(), where + ": " +
                                       report.status().ToString())) {
      return -1;
    }
    Samples node_undo_ms;
    uint64_t rollback_start = NowNs();
    {
      Span span("fleet.rollback");
      for (size_t i = 0; i < fleet.size(); ++i) {
        uint64_t node_start = NowNs();
        ks::Result<std::vector<ksplice::UndoReport>> undone =
            fleet.core(i).UndoAll();
        if (!undone.ok()) {
          ++result.failed;
          result.Check(false, where + ": rollback of " + fleet.spec(i).id +
                                  ": " + undone.status().ToString());
        } else if (!undone->empty()) {
          node_undo_ms.Add(static_cast<double>(NowNs() - node_start) / 1e6 /
                           static_cast<double>(undone->size()));
        }
      }
    }
    double rollback_wall_ms =
        static_cast<double>(NowNs() - rollback_start) / 1e6;
    root.reset();
    const double unit_ms = static_cast<double>(NowNs() - start) / 1e6;
    std::map<std::string, uint64_t> grew = delta.Take();

    // Output checks (untimed).
    const ksplice::RolloutReport& r = *report;
    result.attempted += r.fleet_size + 1;  // every node, plus the rollback
    result.failed += r.failed + r.auto_reverted + r.not_attempted +
                     r.rolled_back;
    result.Check(!r.aborted && r.failed == 0 && r.auto_reverted == 0 &&
                     r.rolled_back == 0 && r.not_attempted == 0,
                 ks::StrPrintf("%s: aborted=%d failed=%u auto_reverted=%u "
                               "rolled_back=%u not_attempted=%u",
                               where.c_str(), r.aborted ? 1 : 0, r.failed,
                               r.auto_reverted, r.rolled_back,
                               r.not_attempted));
    uint32_t predicted = PredictedStale(fleet, draw);
    result.Check(r.skipped_stale == predicted &&
                     r.patched + r.skipped_stale == r.fleet_size,
                 ks::StrPrintf("%s: %u patched, %u stale; the drift table "
                               "predicts %u stale of %u",
                               where.c_str(), r.patched, r.skipped_stale,
                               predicted, r.fleet_size));
    for (const ksplice::RolloutNodeReport& node : r.nodes) {
      if (!node.error.empty() &&
          node.outcome != ksplice::RolloutNodeOutcome::kSkippedStale) {
        result.Check(false, where + ": " + node.node + ": " + node.error);
      }
    }
    size_t threads = 0;
    for (size_t i = 0; i < fleet.size(); ++i) {
      threads = std::max(threads, fleet.machine(i).Threads().size());
      if (!fleet.core(i).AppliedIds().empty() ||
          ReadText(fleet.machine(i), life->ranges[i]) != life->text[i]) {
        ++result.failed;
        result.Check(false, where + ": " + fleet.spec(i).id +
                                " not byte-identical after rollback");
      }
    }
    ++rollouts;
    if (!timed) {
      return unit_ms;
    }
    const size_t index = static_cast<size_t>(life->rollouts - 1);
    wall_by_index[index].Add(unit_ms);
    threads_by_index[index] = threads;
    max_threads = std::max(max_threads, threads);
    rollout_ms.Add(static_cast<double>(r.wall_ns) / 1e6);
    summary.ops_per_s.Add((r.patched + r.skipped_stale) /
                          (static_cast<double>(r.wall_ns) / 1e9));
    rollback_ms.Add(rollback_wall_ms);
    undo_per_update_ms.Append(node_undo_ms);
    for (const ksplice::RolloutNodeReport& node : r.nodes) {
      if (node.outcome == ksplice::RolloutNodeOutcome::kPatched) {
        node_pause_us.Add(static_cast<double>(node.pause_ns) / 1e3);
      }
    }
    resolved_nodes += r.patched + r.skipped_stale;
    stale_nodes += r.skipped_stale;
    waves += r.waves;
    auto_reverts += r.auto_reverted;
    for (const auto& [name, value] : grew) {
      counters[name] += value;
    }
    return unit_ms;
  };

  // The first rollouts in a process run slower (lazy set-up in the
  // pipeline); they run on the set-up fleet, checked but not measured.
  for (int i = 0; i < kWarmupRollouts; ++i) {
    if (rollout_once(false) < 0) {
      return result;
    }
  }
  Tally warmup_creates;
  creates.MergeInto(warmup_creates);
  // One unit is a whole fleet life on a freshly built fleet (the build is
  // not timed).
  TimedLoop loop = RunTimed(config, [&]() -> double {
    life.reset();
    ks::Result<FleetLife> fresh = BuildFleet(config.seed, build_ms);
    if (!result.Check(fresh.ok(), "fleet build failed: " +
                                      fresh.status().ToString())) {
      return 0;
    }
    life.emplace(std::move(fresh).value());
    ++fleets;
    double life_ms = 0;
    for (int i = 0; i < kRolloutsPerFleet; ++i) {
      double ms = rollout_once(true);
      if (ms < 0) {
        break;
      }
      life_ms += ms;
    }
    return life_ms;
  });

  const double rollout_total_ms = rollout_ms.Sum();
  const double ops = static_cast<double>(rollout_ms.size());
  summary.create_ms = creates.create_ms;
  summary.apply_ms = rollout_ms;
  summary.undo_ms = rollback_ms;
  Layers& layers = summary.layers;
  layers.create_ms = creates.create_only_ms.Median();
  layers.lint_ms = creates.lint_ms.Median();
  layers.patch_ms = creates.patch_ms.Median();
  layers.mips = Ratio(static_cast<double>(Get(counters, "kvm.instructions")),
                      rollout_total_ms * 1e3);
  layers.threads = static_cast<double>(max_threads);
  layers.bytes_matched = Ratio(
      static_cast<double>(Get(counters, "runpre.bytes_matched")), ops);
  layers.candidates_tried = Ratio(
      static_cast<double>(Get(counters, "runpre.candidates_tried")), ops);
  layers.quiescence_retries = Ratio(
      static_cast<double>(Get(counters, "ksplice.quiescence_retries")), ops);
  layers.pause_us_p50 = node_pause_us.Median();
  layers.undo_ms = undo_per_update_ms.Median();
  layers.fleet_build_ms = build_ms.Median();
  layers.fleet_rollout_ms = rollout_ms.Median();
  layers.fleet_stale_frac = Ratio(stale_nodes, resolved_nodes);
  layers.fleet_node_pause_us_p99 = node_pause_us.Percentile(0.99);
  layers.fleet_waves = Ratio(waves, ops);
  layers.watchdog_soaks = Ratio(
      static_cast<double>(Get(counters, "ksplice.watchdog.soaks")), ops);
  layers.watchdog_auto_reverts = auto_reverts;
  result.Note(ks::StrPrintf(
      "%d rollouts (%d warm-up) over %d fleet lives of %zu nodes: %.1f "
      "nodes/s (fleet_nodes_per_s), stale share %.3f; rollback: %s",
      rollouts, kWarmupRollouts, fleets, kNodes, summary.ops_per_s.Median(),
      layers.fleet_stale_frac, rollback_ms.Describe("ms").c_str()));
  result.Note("per-node stop window: " + node_pause_us.Describe("us"));
  result.Note("per rollout index within a fleet life:");
  for (size_t i = 0; i < wall_by_index.size(); ++i) {
    result.Note(ks::StrPrintf(
        "  rollout %2zu: max node kvm.threads %4zu, rollout+rollback wall "
        "p50 %8.3f ms (n=%zu)",
        i + 1, threads_by_index[i], wall_by_index[i].Median(),
        wall_by_index[i].size()));
  }
  Finish(config, summary, loop, result);
  return result;
}

}  // namespace perfbench
