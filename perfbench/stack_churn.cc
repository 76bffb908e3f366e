// stack-churn: long-lived kernels working through a cumulative chain of
// 64 updates (§5.4 stacking).
//
// Set-up builds the chain in seeded order: fix k is created against the
// source that already carries fixes 1..k-1, Table-1 entries from their
// custom edits. Four lanes, one per benchmark thread, each keep a kernel of
// their own. Every kernel life re-creates a rotating window of 8 links
// before its passes. Each pass applies the 64 updates in chain order and
// runs each CVE's exploit after its apply, runs stress on the fully stacked
// kernel, then undoes all 64 in seeded random order, deferring and retrying
// undos refused because a newer update links against the one being
// removed. After the last undo every kernel function's text must be
// byte-identical to the booted image. There is no compile or boot work in
// the passes: this is apply, run-pre matching against prior replacements,
// mid-stack undo and trampoline dispatch.
//
// The lanes keep all four CPUs busy. A single busy thread on an otherwise
// idle host swung by about 20% between runs; the mean over four busy CPUs
// moves far less (see the README's findings).
//
// kvm::Machine never reclaims dead threads, so every pass grows the thread
// table and with it the stop_machine pause. A kernel therefore lives for a
// fixed number of passes, counted rather than timed, so its state at the
// end depends on the code and not on how fast it ran; the run repeats such
// lives until its measuring time is used. Thread count and pause are
// logged per pass index, and a failed spawn counts as a failed operation.

#include <algorithm>
#include <deque>
#include <utility>

#include "base/strings.h"
#include "pipeline.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 9;
constexpr int kLanes = 4;
constexpr int kPassesPerLife = 12;
constexpr size_t kRelinksPerLife = 8;

struct Link {
  const corpus::Vulnerability* vuln = nullptr;
  kdiff::SourceTree pre_tree;  // carries every earlier fix
  std::string patch;
  ksplice::UpdatePackage package;
};

// Applies `edits` to `tree` (first occurrence of each `from`).
ks::Status ApplyEdits(const std::vector<corpus::Edit>& edits,
                      kdiff::SourceTree& tree) {
  for (const corpus::Edit& edit : edits) {
    KS_ASSIGN_OR_RETURN(std::string contents, tree.Read(edit.path));
    size_t at = contents.find(edit.from);
    if (at == std::string::npos) {
      return ks::NotFound("edit anchor missing in " + edit.path);
    }
    contents.replace(at, edit.from.size(), edit.to);
    tree.Write(edit.path, std::move(contents));
  }
  return ks::OkStatus();
}

// The cumulative chain in `order`. The sources are built one after
// another; the links are then created on `pool`, from one fresh cache.
ks::Result<std::vector<Link>> BuildChain(const std::vector<size_t>& order,
                                         ks::ThreadPool& pool, Tally& tally) {
  const std::vector<corpus::Vulnerability>& vulns = corpus::Vulnerabilities();
  kdiff::SourceTree tree = corpus::KernelSource();
  std::vector<Link> chain;
  for (size_t index : order) {
    const corpus::Vulnerability& vuln = vulns[index];
    kdiff::SourceTree next = tree;
    KS_RETURN_IF_ERROR(ApplyEdits(
        vuln.needs_custom_code ? vuln.custom_edits : vuln.edits, next));
    std::string patch = kdiff::MakeUnifiedDiff(tree, next);
    chain.push_back(Link{&vuln, std::move(tree), std::move(patch), {}});
    tree = std::move(next);
  }
  kcc::ObjectCache cache;
  std::vector<ks::Status> statuses(chain.size());
  for (size_t i = 0; i < chain.size(); ++i) {
    pool.Submit([&, i] {
      Link& link = chain[i];
      ks::Result<std::optional<ksplice::UpdatePackage>> created =
          CreateAndLint(link.pre_tree, link.patch, link.vuln->cve, cache,
                        tally);
      if (!created.ok()) {
        statuses[i] = created.status();
      } else if (!created->has_value()) {
        statuses[i] =
            ks::FailedPrecondition(link.vuln->cve + " refused in the chain");
      } else {
        link.package = std::move(**created);
      }
    });
  }
  pool.Wait();
  for (const ks::Status& status : statuses) {
    KS_RETURN_IF_ERROR(status);
  }
  return chain;
}

// Whether the next spawned thread starts with root credentials. The
// corpus keeps credentials in a 64-slot table indexed by tid % 64, and slot
// 0 is init's root, so on a long-lived kernel every 64th thread is root
// before it runs. An escalation exploit on such a thread reports success
// whatever the fix does: its run says nothing about the update. Threads
// are never reclaimed, so the next tid is one past the largest.
ks::Result<bool> StartsAsRoot(const kvm::Machine& machine) {
  int next_tid = 1;
  for (const kvm::ThreadInfo& thread : machine.Threads()) {
    next_tid = std::max(next_tid, thread.tid + 1);
  }
  KS_ASSIGN_OR_RETURN(uint32_t creds, machine.GlobalSymbol("cred_uid"));
  KS_ASSIGN_OR_RETURN(uint32_t uid,
                      machine.ReadWord(creds + 4u * static_cast<uint32_t>(
                                                        next_tid % 64)));
  return uid == 0;
}

// Per pass index, across lanes and lives.
struct PassLog {
  Samples pause_us;
  size_t threads = 0;  // thread table at the end of the pass
  Samples wall_ms;
};

// One lane: a long-lived kernel of its own, churning the shared chain on
// one benchmark thread. Its packages are its own, because each life
// re-creates some of them.
struct Lane {
  int index = 0;
  Rng rng{0};  // undo orders
  std::vector<ksplice::UpdatePackage> packages;  // by chain position
  size_t relink_cursor = 0;
  std::unique_ptr<kvm::Machine> machine;
  std::unique_ptr<ksplice::KspliceCore> core;
  TextRanges ranges;
  std::vector<std::vector<uint8_t>> booted_text;
  // What the current life saw; folded into the run after each round.
  Result seen;
  std::vector<PassLog> log = std::vector<PassLog>(kPassesPerLife);
  double life_ms = 0;
  size_t max_threads = 0;
  size_t spawn_failures = 0;
  size_t unjudged = 0;
};

// Replaces the lane's kernel with a freshly booted one for a new life.
void Boot(int life, Lane& lane, Tally& tally) {
  lane.core.reset();
  lane.machine.reset();
  ks::Result<std::unique_ptr<kvm::Machine>> booted = TimedBoot(tally);
  if (!lane.seen.Check(booted.ok(),
                       ks::StrPrintf("lane %d life %d: boot failed: ",
                                     lane.index, life) +
                           booted.status().ToString())) {
    return;
  }
  lane.machine = std::move(booted).value();
  lane.core = std::make_unique<ksplice::KspliceCore>(lane.machine.get());
  lane.ranges = FunctionRanges(*lane.machine);
  lane.booted_text = ReadText(*lane.machine, lane.ranges);
}

// Re-creates a rotating window of the lane's links from an empty cache, so
// create_ms is sampled across the whole run and not only in set-up. The
// fresh packages replace the old ones (same bytes).
void Relink(const std::vector<Link>& chain, Lane& lane, Tally& creates) {
  Span span("chain.relink");
  kcc::ObjectCache cache;
  for (size_t j = 0; j < kRelinksPerLife; ++j) {
    const size_t at = lane.relink_cursor++ % chain.size();
    const Link& link = chain[at];
    ks::Result<std::optional<ksplice::UpdatePackage>> created =
        CreateAndLint(link.pre_tree, link.patch, link.vuln->cve, cache,
                      creates);
    if (lane.seen.Check(created.ok() && created->has_value(),
                        "re-create " + link.vuln->cve + " failed")) {
      lane.packages[at] = std::move(**created);
    }
  }
}

// The lane's passes for one life.
void RunLife(const std::vector<Link>& chain, int life, Lane& lane,
             Tally& tally) {
  lane.life_ms = 0;
  if (lane.machine == nullptr) {
    return;
  }
  kvm::Machine& machine = *lane.machine;
  ksplice::KspliceCore& core = *lane.core;
  Result& seen = lane.seen;
  for (int p = 0; p < kPassesPerLife; ++p) {
    const std::string where =
        ks::StrPrintf("lane %d life %d pass %d", lane.index, life, p + 1);
    Samples pass_pause;
    uint64_t start = NowNs();
    {
      Span span("pass");
      for (size_t i = 0; i < chain.size(); ++i) {
        const Link& link = chain[i];
        ++seen.attempted;
        ks::Result<ksplice::ApplyReport> applied =
            TimedApply(core, lane.packages[i], tally);
        if (!applied.ok()) {
          ++seen.failed;
          seen.Check(false, where + ": apply " + link.vuln->cve + ": " +
                                applied.status().ToString());
          continue;
        }
        pass_pause.Add(static_cast<double>(applied->pause_ns) / 1e3);
        ks::Result<bool> root = StartsAsRoot(machine);
        ks::Result<bool> worked = TimedExploit(machine, *link.vuln, tally);
        if (worked.ok() && *worked && root.ok() && *root) {
          ++lane.unjudged;  // escalation that predates the exploit
          continue;
        }
        if (!worked.ok() || *worked) {
          ++seen.failed;
          if (!worked.ok() && worked.status().code() ==
                                  ks::ErrorCode::kResourceExhausted) {
            ++lane.spawn_failures;
          }
          seen.Check(false, where + ": exploit " + link.vuln->cve +
                                (worked.ok() ? " not blocked"
                                             : ": " + worked.status()
                                                          .ToString()));
        }
      }
      ++seen.attempted;
      ks::Status stress = TimedStress(machine, tally);
      if (!stress.ok()) {
        ++seen.failed;
        lane.spawn_failures +=
            stress.code() == ks::ErrorCode::kResourceExhausted ? 1 : 0;
        seen.Check(false,
                   where + ": stress on the full stack: " + stress.ToString());
      }

      // Undo everything in seeded order; refused undos wait for the
      // update that depends on them to leave first.
      std::vector<std::string> ids = core.AppliedIds();
      Shuffle(ids, lane.rng);
      std::deque<std::string> pending(ids.begin(), ids.end());
      size_t refused_in_a_row = 0;
      while (!pending.empty() && refused_in_a_row < pending.size()) {
        std::string id = pending.front();
        pending.pop_front();
        ks::Result<ksplice::UndoReport> undone = TimedUndo(core, id, tally);
        if (undone.ok()) {
          refused_in_a_row = 0;
        } else if (IsDependencyRefusal(undone.status())) {
          pending.push_back(id);
          ++refused_in_a_row;
        } else {
          ++seen.failed;
          refused_in_a_row = 0;
          seen.Check(false, where + ": undo " + id + ": " +
                                undone.status().ToString());
        }
      }
      seen.Check(pending.empty(),
                 ks::StrPrintf("%s: %zu updates could not be undone",
                               where.c_str(), pending.size()));
    }
    double wall_ms = static_cast<double>(NowNs() - start) / 1e6;
    lane.life_ms += wall_ms;
    seen.Check(ReadText(machine, lane.ranges) == lane.booted_text,
               where + ": kernel text differs from the booted image after "
                       "the last undo");
    size_t threads = machine.Threads().size();
    lane.max_threads = std::max(lane.max_threads, threads);
    PassLog& entry = lane.log[static_cast<size_t>(p)];
    entry.threads = threads;
    entry.pause_us.Append(pass_pause);
    entry.wall_ms.Add(wall_ms);
  }
}

}  // namespace

Result RunStackChurn(const RunConfig& config) {
  Result result;
  Summary summary;
  summary.lanes = kLanes;
  Rng rng(config.seed);
  std::vector<size_t> order(corpus::Vulnerabilities().size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  Shuffle(order, rng);

  // Set-up: build the chain and boot the kernel, repeated.
  ks::ThreadPool workers(kLanes);
  Tally setup;
  std::vector<Link> chain;
  for (int i = 0; i < kSetupRepeats; ++i) {
    uint64_t start = NowNs();
    ks::Result<std::vector<Link>> built = BuildChain(order, workers, setup);
    ks::Result<std::unique_ptr<kvm::Machine>> booted = corpus::BootKernel();
    summary.setup_s.Add(static_cast<double>(NowNs() - start) / 1e9);
    ks::Status status = built.ok() ? booted.status() : built.status();
    if (!result.Check(status.ok(), "set-up failed: " + status.ToString())) {
      return result;
    }
    chain = std::move(built).value();
  }
  std::vector<Lane> lanes(kLanes);
  for (int l = 0; l < kLanes; ++l) {
    Lane& lane = lanes[static_cast<size_t>(l)];
    lane.index = l + 1;
    lane.rng = Rng(rng.Next());
    lane.relink_cursor = static_cast<size_t>(l) * chain.size() / kLanes;
    for (const Link& link : chain) {
      lane.packages.push_back(link.package);
    }
  }

  // One unit is a round: every lane starts a life, then every lane runs
  // its passes. Counter deltas cover the passes only.
  Tally tally;
  Tally creates;
  std::map<std::string, uint64_t> counters;
  int rounds = 0;
  auto round = [&]() -> double {
    ++rounds;
    const uint64_t start = NowNs();
    // The kernels are freed and booted one after another on this thread,
    // so each new image reuses the one it replaces: where images land in
    // the heap, and so the peak RSS, does not depend on thread timing.
    for (Lane& lane : lanes) {
      Boot(rounds, lane, tally);
      workers.Submit([&] { Relink(chain, lane, creates); });
    }
    workers.Wait();
    CounterDelta delta;
    for (Lane& lane : lanes) {
      workers.Submit([&] { RunLife(chain, rounds, lane, tally); });
    }
    workers.Wait();
    const double round_ms = static_cast<double>(NowNs() - start) / 1e6;
    for (const auto& [name, value] : delta.Take()) {
      counters[name] += value;
    }
    for (Lane& lane : lanes) {
      result.attempted += std::exchange(lane.seen.attempted, 0);
      result.failed += std::exchange(lane.seen.failed, 0);
      for (std::string& violation : lane.seen.violations) {
        result.violations.push_back(std::move(violation));
      }
      lane.seen.violations.clear();
      if (lane.life_ms > 0) {
        summary.ops_per_s.Add(
            static_cast<double>(kPassesPerLife * chain.size()) /
            lane.life_ms * 1e3);
      }
    }
    return round_ms;
  };

  // The first round in a process runs slower than later ones (fresh heap
  // pages, cold caches); it is checked but not measured.
  round();
  const int warmup_rounds = rounds;
  Tally discarded;
  tally.MergeInto(discarded);
  creates.MergeInto(discarded);
  counters.clear();
  summary.ops_per_s = Samples();
  for (Lane& lane : lanes) {
    lane.log = std::vector<PassLog>(kPassesPerLife);
  }
  TimedLoop loop = RunTimed(config, round);

  std::vector<PassLog> log(kPassesPerLife);
  size_t max_threads = 0;
  size_t spawn_failures = 0;
  size_t unjudged = 0;
  for (const Lane& lane : lanes) {
    for (size_t p = 0; p < log.size(); ++p) {
      log[p].threads = std::max(log[p].threads, lane.log[p].threads);
      log[p].pause_us.Append(lane.log[p].pause_us);
      log[p].wall_ms.Append(lane.log[p].wall_ms);
    }
    max_threads = std::max(max_threads, lane.max_threads);
    spawn_failures += lane.spawn_failures;
    unjudged += lane.unjudged;
  }
  const double steps = static_cast<double>(rounds - warmup_rounds) * kLanes *
                       kPassesPerLife * static_cast<double>(chain.size());
  summary.create_ms = creates.create_ms;
  summary.apply_ms = tally.apply_ms;
  summary.undo_ms = tally.undo_ms;
  FillPipelineLayers(tally, counters, steps, summary.layers);
  summary.layers.create_ms = creates.create_only_ms.Median();
  summary.layers.lint_ms = creates.lint_ms.Median();
  summary.layers.threads = static_cast<double>(max_threads);
  result.Note(ks::StrPrintf(
      "%d rounds (1 warm-up) of %d lanes, each lane a kernel life of %d "
      "passes over a "
      "%zu-update chain: %.2f chain steps/s per kernel (apply + exploit + "
      "undo per CVE); %zu spawn failures; %zu exploit runs unjudged because "
      "their thread started as root",
      rounds, kLanes, kPassesPerLife, chain.size(),
      summary.ops_per_s.Median(), spawn_failures, unjudged));
  result.Note("per pass index (threads at pass end; apply pause and pass "
              "wall over all lanes and lives):");
  for (size_t p = 0; p < log.size(); ++p) {
    result.Note(ks::StrPrintf(
        "  pass %2zu: kvm.threads %5zu, pause p50 %7.3f us p90 %7.3f us, "
        "wall p50 %8.3f ms",
        p + 1, log[p].threads, log[p].pause_us.Median(),
        log[p].pause_us.Percentile(0.9), log[p].wall_ms.Median()));
  }
  Finish(config, summary, loop, result);
  return result;
}

}  // namespace perfbench
