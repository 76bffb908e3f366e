// Timed wrappers around the public pipeline calls the workloads share.
// Each wrapper opens one span named after the layer it enters, times the
// call, and records what the call's public report says into a Tally.

#ifndef KSPLICE_PERFBENCH_PIPELINE_H_
#define KSPLICE_PERFBENCH_PIPELINE_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "base/status.h"
#include "base/threadpool.h"
#include "common.h"
#include "corpus/corpus.h"
#include "kcc/objcache.h"
#include "kdiff/diff.h"
#include "ksplice/core.h"
#include "ksplice/package.h"

namespace perfbench {

// Observations of the pipeline calls, safe to fill from several workers.
struct Tally {
  std::mutex mu;
  Samples create_ms;       // CreateUpdate + lint, per package
  Samples create_only_ms;  // CreateUpdate, lint off
  Samples lint_ms;
  Samples patch_ms;
  Samples boot_ms;
  Samples apply_ms;
  Samples match_ms;       // ApplyReport "match" stage
  Samples rendezvous_ms;  // ApplyReport "rendezvous" stage
  Samples pause_us;       // ApplyReport::pause_ns
  Samples undo_ms;
  double exec_ms = 0;  // exploit + stress spans
  uint64_t undo_attempts = 0;
  uint64_t undo_refusals = 0;  // "depends on" refusals
  uint64_t undo_out_of_order = 0;

  void Add(Samples& samples, double v) {
    std::lock_guard<std::mutex> lock(mu);
    samples.Add(v);
  }
  // Moves every observation into `into` (single-threaded).
  void MergeInto(Tally& into);
};

// CreateUpdate's double-build options over the corpus run build, served
// from `cache`.
kcc::CompileOptions CorpusCompileOptions(kcc::ObjectCache* cache);

// A fresh cache already holding every unit of the pre kernel's double
// build, so a create compiles only the post side of its patch. The units
// compile on `pool`.
ks::Result<std::unique_ptr<kcc::ObjectCache>> WarmPreCache(
    ks::ThreadPool& pool);

// corpus::PatchFor / AmendedPatchFor, timed.
ks::Result<std::string> TimedPatch(const corpus::Vulnerability& vuln,
                                   bool amended, Tally& tally);

// CreateUpdate (lint off) then kanalyze::AnalyzePackage over the same
// cache. nullopt = refused by the data-semantics gate.
ks::Result<std::optional<ksplice::UpdatePackage>> CreateAndLint(
    const kdiff::SourceTree& pre_tree, const std::string& patch,
    const std::string& id, kcc::ObjectCache& cache, Tally& tally);

ks::Result<std::unique_ptr<kvm::Machine>> TimedBoot(Tally& tally);

ks::Result<ksplice::ApplyReport> TimedApply(ksplice::KspliceCore& core,
                                            const ksplice::UpdatePackage& pkg,
                                            Tally& tally);

// KspliceCore::Undo; a "depends on" refusal is counted as a refusal.
ks::Result<ksplice::UndoReport> TimedUndo(ksplice::KspliceCore& core,
                                          const std::string& id, Tally& tally);

ks::Result<bool> TimedExploit(kvm::Machine& machine,
                              const corpus::Vulnerability& vuln, Tally& tally);
ks::Status TimedStress(kvm::Machine& machine, Tally& tally);

// True when `status` is the manager's refusal to undo an update a newer
// one links against.
bool IsDependencyRefusal(const ks::Status& status);

// Fills the kvm, create, kanalyze, apply and undo layers from `tally` and
// the registry counter growth, normalizing counts by `ops`.
void FillPipelineLayers(const Tally& tally,
                        const std::map<std::string, uint64_t>& counters,
                        double ops, Layers& layers);

}  // namespace perfbench

#endif  // KSPLICE_PERFBENCH_PIPELINE_H_
