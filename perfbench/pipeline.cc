#include "pipeline.h"

#include <utility>

#include "kanalyze/kanalyze.h"
#include "ksplice/create.h"

namespace perfbench {

void Tally::MergeInto(Tally& into) {
  for (auto [from, to] : {std::pair{&create_ms, &into.create_ms},
                          std::pair{&create_only_ms, &into.create_only_ms},
                          std::pair{&lint_ms, &into.lint_ms},
                          std::pair{&patch_ms, &into.patch_ms},
                          std::pair{&boot_ms, &into.boot_ms},
                          std::pair{&apply_ms, &into.apply_ms},
                          std::pair{&match_ms, &into.match_ms},
                          std::pair{&rendezvous_ms, &into.rendezvous_ms},
                          std::pair{&pause_us, &into.pause_us},
                          std::pair{&undo_ms, &into.undo_ms}}) {
    to->Append(*from);
    *from = Samples();
  }
  into.exec_ms += std::exchange(exec_ms, 0);
  into.undo_attempts += std::exchange(undo_attempts, 0);
  into.undo_refusals += std::exchange(undo_refusals, 0);
  into.undo_out_of_order += std::exchange(undo_out_of_order, 0);
}

kcc::CompileOptions CorpusCompileOptions(kcc::ObjectCache* cache) {
  kcc::CompileOptions options = corpus::RunBuildOptions();
  options.cache = cache;
  return options;
}

ks::Result<std::unique_ptr<kcc::ObjectCache>> WarmPreCache(
    ks::ThreadPool& pool) {
  auto cache = std::make_unique<kcc::ObjectCache>();
  // The double build's options (§3.2 section-per-function), so the warmed
  // entries are exactly the pre objects a create looks up.
  kcc::CompileOptions options = CorpusCompileOptions(cache.get());
  options.function_sections = true;
  options.data_sections = true;
  const kdiff::SourceTree& tree = corpus::KernelSource();
  std::mutex mu;
  ks::Status status;
  for (const std::string& path : tree.Paths()) {
    if (kcc::IsCompilationUnit(path)) {
      pool.Submit([&, path] {
        ks::Status compiled =
            cache->GetOrCompile(tree, path, options).status();
        std::lock_guard<std::mutex> lock(mu);
        if (status.ok()) {
          status = compiled;
        }
      });
    }
  }
  pool.Wait();
  KS_RETURN_IF_ERROR(status);
  return cache;
}

ks::Result<std::string> TimedPatch(const corpus::Vulnerability& vuln,
                                   bool amended, Tally& tally) {
  Span span("corpus.patch");
  ks::Result<std::string> patch =
      amended ? corpus::AmendedPatchFor(vuln) : corpus::PatchFor(vuln);
  tally.Add(tally.patch_ms, span.ElapsedMs());
  return patch;
}

ks::Result<std::optional<ksplice::UpdatePackage>> CreateAndLint(
    const kdiff::SourceTree& pre_tree, const std::string& patch,
    const std::string& id, kcc::ObjectCache& cache, Tally& tally) {
  ksplice::CreateOptions options;
  options.compile = CorpusCompileOptions(&cache);
  options.id = id;
  options.lint = ksplice::LintMode::kOff;
  double create_ms = 0;
  ks::Result<ksplice::CreateResult> created = [&] {
    Span span("ksplice.create");
    ks::Result<ksplice::CreateResult> out =
        ksplice::CreateUpdate(pre_tree, patch, options);
    create_ms = span.ElapsedMs();
    return out;
  }();
  tally.Add(tally.create_only_ms, create_ms);
  if (!created.ok()) {
    if (created.status().code() != ks::ErrorCode::kFailedPrecondition) {
      return created.status();
    }
    tally.Add(tally.create_ms, create_ms);
    return std::optional<ksplice::UpdatePackage>();
  }
  kanalyze::AnalyzeOptions lint_options;
  lint_options.cache = &cache;
  double lint_ms = 0;
  ks::Status linted = [&] {
    Span span("kanalyze.lint");
    ks::Status status =
        kanalyze::AnalyzePackage(created->package, lint_options).status();
    lint_ms = span.ElapsedMs();
    return status;
  }();
  KS_RETURN_IF_ERROR(linted);
  tally.Add(tally.lint_ms, lint_ms);
  tally.Add(tally.create_ms, create_ms + lint_ms);
  return std::optional<ksplice::UpdatePackage>(std::move(created->package));
}

ks::Result<std::unique_ptr<kvm::Machine>> TimedBoot(Tally& tally) {
  Span span("kvm.boot");
  ks::Result<std::unique_ptr<kvm::Machine>> machine = corpus::BootKernel();
  tally.Add(tally.boot_ms, span.ElapsedMs());
  return machine;
}

ks::Result<ksplice::ApplyReport> TimedApply(ksplice::KspliceCore& core,
                                            const ksplice::UpdatePackage& pkg,
                                            Tally& tally) {
  Span span("ksplice.apply");
  ks::Result<ksplice::ApplyReport> report = core.Apply(pkg);
  double ms = span.ElapsedMs();
  if (!report.ok()) {
    return report;
  }
  std::lock_guard<std::mutex> lock(tally.mu);
  tally.apply_ms.Add(ms);
  tally.pause_us.Add(static_cast<double>(report->pause_ns) / 1e3);
  for (const ksplice::StageTiming& stage : report->stages) {
    if (stage.stage == "match") {
      tally.match_ms.Add(static_cast<double>(stage.wall_ns) / 1e6);
    } else if (stage.stage == "rendezvous") {
      tally.rendezvous_ms.Add(static_cast<double>(stage.wall_ns) / 1e6);
    }
  }
  return report;
}

bool IsDependencyRefusal(const ks::Status& status) {
  return status.code() == ks::ErrorCode::kFailedPrecondition &&
         status.message().find("depends on") != std::string::npos;
}

ks::Result<ksplice::UndoReport> TimedUndo(ksplice::KspliceCore& core,
                                          const std::string& id,
                                          Tally& tally) {
  Span span("ksplice.undo");
  ks::Result<ksplice::UndoReport> report = core.Undo(id);
  double ms = span.ElapsedMs();
  std::lock_guard<std::mutex> lock(tally.mu);
  ++tally.undo_attempts;
  if (report.ok()) {
    tally.undo_ms.Add(ms);
    tally.undo_out_of_order += report->out_of_order ? 1 : 0;
  } else if (IsDependencyRefusal(report.status())) {
    ++tally.undo_refusals;
  }
  return report;
}

ks::Result<bool> TimedExploit(kvm::Machine& machine,
                              const corpus::Vulnerability& vuln,
                              Tally& tally) {
  Span span("kvm.exec");
  ks::Result<bool> worked = corpus::RunExploit(machine, vuln);
  std::lock_guard<std::mutex> lock(tally.mu);
  tally.exec_ms += span.ElapsedMs();
  return worked;
}

ks::Status TimedStress(kvm::Machine& machine, Tally& tally) {
  Span span("kvm.exec");
  ks::Status status = corpus::RunStress(machine, 1);
  std::lock_guard<std::mutex> lock(tally.mu);
  tally.exec_ms += span.ElapsedMs();
  return status;
}

void FillPipelineLayers(const Tally& tally,
                        const std::map<std::string, uint64_t>& counters,
                        double ops, Layers& layers) {
  auto per_op = [&](const char* name) {
    return Ratio(static_cast<double>(Get(counters, name)), ops);
  };
  auto hit_ratio = [&](const char* hits, const char* misses) {
    double h = static_cast<double>(Get(counters, hits));
    return Ratio(h, h + static_cast<double>(Get(counters, misses)));
  };
  layers.boot_ms = tally.boot_ms.Median();
  layers.exec_ms = Ratio(tally.exec_ms, ops);
  layers.mips = Ratio(static_cast<double>(Get(counters, "kvm.instructions")),
                      tally.exec_ms * 1e3);
  layers.create_ms = tally.create_only_ms.Median();
  layers.units_compiled = per_op("kcc.units_compiled");
  layers.objcache_hit_ratio =
      hit_ratio("kcc.objcache.hits", "kcc.objcache.misses");
  layers.units_rebuilt = per_op("prepost.units_rebuilt");
  layers.patch_ms = tally.patch_ms.Median();
  layers.lint_ms = tally.lint_ms.Median();
  layers.summary_hit_ratio = hit_ratio("kanalyze.summary.cache_hits",
                                       "kanalyze.summary.cache_misses");
  layers.apply_ms = tally.apply_ms.Median();
  layers.match_ms = tally.match_ms.Median();
  layers.rendezvous_ms = tally.rendezvous_ms.Median();
  layers.bytes_matched = per_op("runpre.bytes_matched");
  layers.candidates_tried = per_op("runpre.candidates_tried");
  layers.quiescence_retries = per_op("ksplice.quiescence_retries");
  layers.pause_us_p50 = tally.pause_us.Median();
  layers.undo_ms = tally.undo_ms.Median();
  layers.undo_refusal_ratio =
      Ratio(static_cast<double>(tally.undo_refusals),
            static_cast<double>(tally.undo_attempts));
  layers.undo_out_of_order_frac =
      Ratio(static_cast<double>(tally.undo_out_of_order),
            static_cast<double>(tally.undo_ms.size()));
}

}  // namespace perfbench
