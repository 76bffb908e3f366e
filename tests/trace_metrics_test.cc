// Tests for the observability layer: trace spans (base/trace.h), the
// metrics registry (base/metrics.h), and the typed per-phase reports
// (ksplice/report.h) produced across a full create -> apply -> undo cycle.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "base/json.h"
#include "base/metrics.h"
#include "base/trace.h"
#include "corpus/corpus.h"
#include "kcc/compile.h"
#include "kcc/objcache.h"
#include "kdiff/diff.h"
#include "ksplice/core.h"
#include "ksplice/create.h"
#include "ksplice/runpre.h"
#include "kvm/machine.h"

namespace ksplice {
namespace {

using kdiff::SourceTree;

// --------------------------------------------------------- JSON checker
//
// A minimal recursive-descent JSON well-formedness checker, so the
// schema tests validate real syntax instead of grepping for braces.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (static_cast<unsigned char>(text_[pos_]) < 0x20) {
        return false;  // raw control characters must be escaped
      }
      if (text_[pos_] == '\\') {
        ++pos_;  // skip the escaped character
        if (pos_ >= text_.size()) {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) {
      return false;
    }
    pos_ += len;
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

bool ValidJson(const std::string& text) { return JsonChecker(text).Valid(); }

// Restores the global trace switch on scope exit so one test cannot leak
// tracing state into the next.
struct ScopedTrace {
  explicit ScopedTrace(bool enabled) {
    ks::ClearTrace();
    ks::SetTraceEnabled(enabled);
  }
  ~ScopedTrace() {
    ks::SetTraceEnabled(false);
    ks::ClearTrace();
  }
};

const ks::TraceEvent* FindEvent(const std::vector<ks::TraceEvent>& events,
                                const std::string& name) {
  for (const ks::TraceEvent& event : events) {
    if (event.name == name) {
      return &event;
    }
  }
  return nullptr;
}

// ------------------------------------------------------------ trace spans

TEST(TraceTest, SpansNestAndRecordDepth) {
  ScopedTrace trace(true);
  {
    ks::TraceSpan outer("test.outer");
    outer.AddTicks(5);
    outer.AddTicks(7);
    outer.Annotate("unit", std::string("sys/vuln.kc"));
    outer.Annotate("bytes", uint64_t{42});
    {
      ks::TraceSpan inner("test.inner");
      EXPECT_TRUE(inner.enabled());
      { ks::TraceSpan innermost("test.innermost"); }
    }
  }
  std::vector<ks::TraceEvent> events = ks::TraceSnapshot();
  ASSERT_EQ(events.size(), 3u);

  const ks::TraceEvent* outer = FindEvent(events, "test.outer");
  const ks::TraceEvent* inner = FindEvent(events, "test.inner");
  const ks::TraceEvent* innermost = FindEvent(events, "test.innermost");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(innermost, nullptr);

  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(innermost->depth, 2);
  EXPECT_EQ(outer->thread, inner->thread);

  // The outer span contains the inner one in time.
  EXPECT_LE(outer->start_ns, inner->start_ns);
  EXPECT_GE(outer->start_ns + outer->dur_ns, inner->start_ns + inner->dur_ns);

  // Ticks accumulate; annotations are preserved as strings.
  EXPECT_EQ(outer->ticks, 12u);
  ASSERT_EQ(outer->args.size(), 2u);
  EXPECT_EQ(outer->args[0].first, "unit");
  EXPECT_EQ(outer->args[0].second, "sys/vuln.kc");
  EXPECT_EQ(outer->args[1].second, "42");
}

TEST(TraceTest, DisabledModeRecordsNothing) {
  ScopedTrace trace(false);
  {
    ks::TraceSpan span("test.disabled");
    EXPECT_FALSE(span.enabled());
    span.AddTicks(100);
    span.Annotate("key", std::string("value"));
  }
  EXPECT_TRUE(ks::TraceSnapshot().empty());
  EXPECT_EQ(ks::TraceDropped(), 0u);
}

TEST(TraceTest, JsonExportIsWellFormedChromeTrace) {
  ScopedTrace trace(true);
  {
    ks::TraceSpan span("test.json_span");
    span.Annotate("note", std::string("with \"quotes\" and \\slashes\\"));
  }
  std::string json = ks::TraceJson();
  EXPECT_TRUE(ValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("test.json_span"), std::string::npos);

  // The summary mentions the span too.
  std::string summary = ks::TraceSummary();
  EXPECT_NE(summary.find("test.json_span"), std::string::npos);
}

// ------------------------------------------------------------- histograms

TEST(MetricsTest, HistogramPowerOfTwoBucketing) {
  ks::Histogram hist;
  for (uint64_t v : {1ull, 2ull, 3ull, 4ull, 1024ull}) {
    hist.Observe(v);
  }
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_EQ(hist.sum(), 1034u);
  EXPECT_EQ(hist.min(), 1u);
  EXPECT_EQ(hist.max(), 1024u);
  EXPECT_DOUBLE_EQ(hist.mean(), 1034.0 / 5.0);

  // Bucket i counts observations in (2^(i-1), 2^i].
  EXPECT_EQ(hist.bucket(0), 1u);   // 1
  EXPECT_EQ(hist.bucket(1), 1u);   // 2
  EXPECT_EQ(hist.bucket(2), 2u);   // 3, 4
  EXPECT_EQ(hist.bucket(10), 1u);  // 1024
  EXPECT_EQ(ks::Histogram::BucketBound(0), 1u);
  EXPECT_EQ(ks::Histogram::BucketBound(10), 1024u);

  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 0u);
}

TEST(MetricsTest, RegistryJsonRoundTrip) {
  ks::Counter& counter = ks::Metrics().GetCounter("test.roundtrip.counter");
  ks::Gauge& gauge = ks::Metrics().GetGauge("test.roundtrip.gauge");
  ks::Histogram& hist = ks::Metrics().GetHistogram("test.roundtrip.hist");
  counter.Reset();
  counter.Add(3);
  gauge.Set(-7);
  hist.Observe(5);

  std::string json = ks::Metrics().ToJson();
  EXPECT_TRUE(ValidJson(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.roundtrip.counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.roundtrip.gauge\":-7"), std::string::npos);

  // The same instrument comes back on lookup (stable references), and the
  // counter snapshot includes it.
  EXPECT_EQ(&counter, &ks::Metrics().GetCounter("test.roundtrip.counter"));
  std::map<std::string, uint64_t> values = ks::Metrics().CounterValues();
  ASSERT_NE(values.find("test.roundtrip.counter"), values.end());
  EXPECT_EQ(values["test.roundtrip.counter"], 3u);
}

TEST(MetricsTest, ObjectCacheHitsAndMissesReachTheRegistry) {
  kdiff::SourceTree tree;
  tree.Write("cached.kc", "int cached_fn(int x) { return x * 3 + 1; }\n");
  kcc::CompileOptions options;
  kcc::ObjectCache cache;

  uint64_t hits_before =
      ks::Metrics().GetCounter("kcc.objcache.hits").value();
  uint64_t misses_before =
      ks::Metrics().GetCounter("kcc.objcache.misses").value();

  bool was_hit = true;
  ASSERT_TRUE(cache.GetOrCompile(tree, "cached.kc", options, &was_hit).ok());
  EXPECT_FALSE(was_hit);
  ASSERT_TRUE(cache.GetOrCompile(tree, "cached.kc", options, &was_hit).ok());
  EXPECT_TRUE(was_hit);

  EXPECT_EQ(ks::Metrics().GetCounter("kcc.objcache.hits").value(),
            hits_before + 1);
  EXPECT_EQ(ks::Metrics().GetCounter("kcc.objcache.misses").value(),
            misses_before + 1);
}

// ----------------------------------------------- reports, full cycle

SourceTree MiniKernelTree() {
  SourceTree tree;
  tree.Write("kapi.h", "int check_access(int uid, int requested);\n");
  tree.Write("sys/vuln.kc", R"(
int check_access(int uid, int requested) {
  if (requested > 100) {
    return 1;
  }
  if (uid == 0) {
    return 1;
  }
  return 0;
}
)");
  tree.Write("sys/probes.kc", R"(
#include "kapi.h"
void probe_access(int requested) { record(200, check_access(1000, requested)); }
)");
  return tree;
}

kcc::CompileOptions MonolithicBuild() {
  kcc::CompileOptions options;
  options.function_sections = false;
  options.data_sections = false;
  return options;
}

std::string FixPatch(const SourceTree& tree) {
  SourceTree post = tree;
  std::string contents = *tree.Read("sys/vuln.kc");
  size_t at = contents.find("return 1;");
  EXPECT_NE(at, std::string::npos);
  contents.replace(at, 9, "return 0;");
  post.Write("sys/vuln.kc", contents);
  return kdiff::MakeUnifiedDiff(tree, post);
}

TEST(ReportTest, FullCyclePopulatesCreateApplyUndoReports) {
  ScopedTrace trace(true);
  SourceTree tree = MiniKernelTree();
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(tree, MonolithicBuild());
  ASSERT_TRUE(objects.ok()) << objects.status().ToString();
  kvm::MachineConfig config;
  ks::Result<std::unique_ptr<kvm::Machine>> machine =
      kvm::Machine::Boot(std::move(objects).value(), config);
  ASSERT_TRUE(machine.ok()) << machine.status().ToString();

  CreateOptions options;
  options.compile = MonolithicBuild();
  options.id = "obs-test";
  ks::Result<CreateResult> created =
      CreateUpdate(tree, FixPatch(tree), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  // Create report: one unit rebuilt, the changed function identified by
  // name with plausible sizes, wall times measured and properly nested.
  const CreateReport& create_report = created->report;
  EXPECT_EQ(create_report.id, "obs-test");
  EXPECT_EQ(create_report.units_rebuilt, 1u);
  ASSERT_EQ(create_report.units.size(), 1u);
  EXPECT_EQ(create_report.units[0].unit, "sys/vuln.kc");
  EXPECT_GT(create_report.units[0].sections_compared, 0u);
  EXPECT_GT(create_report.units[0].sections_changed, 0u);
  EXPECT_GT(create_report.units[0].pre_text_bytes, 0u);
  EXPECT_EQ(create_report.targets, 1u);
  ASSERT_EQ(create_report.changed_functions.size(), 1u);
  EXPECT_EQ(create_report.changed_functions[0].symbol, "check_access");
  EXPECT_EQ(create_report.changed_functions[0].change, "modified");
  EXPECT_GT(create_report.changed_functions[0].pre_size, 0u);
  EXPECT_GT(create_report.changed_functions[0].post_size, 0u);
  EXPECT_GT(create_report.create_wall_ns, 0u);
  EXPECT_GE(create_report.create_wall_ns, create_report.prepost_wall_ns);
  EXPECT_TRUE(ValidJson(create_report.ToJson())) << create_report.ToJson();

  // MatchStats out-param on a direct matcher call.
  kcc::CompileOptions pre_options = MonolithicBuild();
  pre_options.function_sections = true;
  pre_options.data_sections = true;
  ks::Result<kelf::ObjectFile> pre =
      kcc::CompileUnit(tree, "sys/vuln.kc", pre_options);
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();
  RunPreMatcher matcher(**machine);
  MatchStats stats;
  ASSERT_TRUE(matcher.MatchUnit(*pre, &stats).ok());
  EXPECT_GT(stats.sections_matched, 0u);
  EXPECT_GT(stats.candidates_tried, 0u);
  EXPECT_GT(stats.run_bytes_matched, 0u);
  // Each section and candidate address is decoded once (canonicalized
  // counters) instead of re-walking pre bytes per candidate attempt.
  EXPECT_GT(stats.pre_bytes_canonicalized, 0u);
  EXPECT_GT(stats.run_bytes_canonicalized, 0u);
  EXPECT_GT(stats.symbols_recovered, 0u);
  EXPECT_GE(stats.fixpoint_passes, 1u);
  EXPECT_TRUE(ValidJson(stats.ToJson())) << stats.ToJson();


  uint64_t applies_before = ks::Metrics().GetCounter("ksplice.applies").value();
  uint64_t pauses_before =
      ks::Metrics().GetHistogram("ksplice.stop_pause_ns").count();

  KspliceCore core(machine->get());
  ks::Result<ApplyReport> applied = core.Apply(created->package);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->id, "obs-test");
  ASSERT_EQ(applied->functions.size(), 1u);
  EXPECT_EQ(applied->functions[0].symbol, "check_access");
  EXPECT_GT(applied->functions[0].trampoline_bytes, 0u);
  EXPECT_GE(applied->attempts, 1);
  EXPECT_EQ(applied->quiescence_retries, applied->attempts - 1);
  EXPECT_GT(applied->trampoline_bytes, 0u);
  EXPECT_GT(applied->primary_bytes, 0u);
  EXPECT_GT(applied->helper_bytes, 0u);
  EXPECT_FALSE(applied->helper_retained);
  EXPECT_GT(applied->match.sections_matched, 0u);
  EXPECT_GT(applied->match.run_bytes_matched, 0u);
  EXPECT_TRUE(ValidJson(applied->ToJson())) << applied->ToJson();

  // The per-process aggregates moved in step with the report.
  EXPECT_EQ(ks::Metrics().GetCounter("ksplice.applies").value(),
            applies_before + 1);
  EXPECT_EQ(ks::Metrics().GetHistogram("ksplice.stop_pause_ns").count(),
            pauses_before + 1);

  ks::Result<UndoReport> undone = core.Undo(applied->id);
  ASSERT_TRUE(undone.ok()) << undone.status().ToString();
  EXPECT_EQ(undone->id, "obs-test");
  EXPECT_EQ(undone->functions_restored, 1u);
  EXPECT_GE(undone->attempts, 1);
  EXPECT_GT(undone->bytes_restored, 0u);
  EXPECT_EQ(undone->bytes_restored, applied->trampoline_bytes);
  EXPECT_GT(undone->primary_bytes_reclaimed, 0u);
  EXPECT_TRUE(ValidJson(undone->ToJson())) << undone->ToJson();

  // The traced pipeline left spans for every phase.
  std::vector<ks::TraceEvent> events = ks::TraceSnapshot();
  EXPECT_NE(FindEvent(events, "create.update"), nullptr);
  EXPECT_NE(FindEvent(events, "prepost.run"), nullptr);
  EXPECT_NE(FindEvent(events, "runpre.match_unit"), nullptr);
  EXPECT_NE(FindEvent(events, "ksplice.apply"), nullptr);
  EXPECT_NE(FindEvent(events, "ksplice.undo"), nullptr);
}

TEST(ReportTest, MatchStatsCountEachCandidateAttemptOnce) {
  // Regression: deferred ambiguous sections used to re-try (and re-count)
  // every candidate on every fixpoint pass, inflating candidates_tried.
  // With the attempt cache each (section, candidate) pair is verified
  // exactly once, however many passes run.
  SourceTree tree;
  // Two same-named static functions with different bodies: the ambiguous
  // unit defers on pass 1 (both `pick` copies match some candidate until
  // the valuation narrows) only if content alone cannot decide — here the
  // bodies differ, so content decides in one pass, but both candidates
  // must still be tried exactly once.
  tree.Write("a.kc", R"(
static int pick(int x) {
  return x * 3 + 1;
}
int entry_a(int x) {
  return pick(x) + pick(x + 1) + pick(x + 2) + pick(x + 3) + pick(x + 4)
       + pick(x + 5) + pick(x + 6);
}
)");
  tree.Write("b.kc", R"(
static int pick(int x) {
  return x * 5 + 2;
}
int entry_b(int x) {
  return pick(x) + pick(x + 1) + pick(x + 2) + pick(x + 3) + pick(x + 4)
       + pick(x + 5) + pick(x + 6);
}
)");
  kcc::CompileOptions run_options;
  run_options.inline_threshold = 0;
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(tree, run_options);
  ASSERT_TRUE(objects.ok()) << objects.status().ToString();
  ks::Result<std::unique_ptr<kvm::Machine>> machine =
      kvm::Machine::Boot(std::move(objects).value(), kvm::MachineConfig{});
  ASSERT_TRUE(machine.ok()) << machine.status().ToString();
  ASSERT_EQ((*machine)->SymbolsNamed("pick").size(), 2u);

  kcc::CompileOptions pre_options = run_options;
  pre_options.function_sections = true;
  pre_options.data_sections = true;
  ks::Result<kelf::ObjectFile> pre =
      kcc::CompileUnit(tree, "b.kc", pre_options);
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();

  // The unit has two sections (.text.pick with 2 candidates, .text.entry_b
  // with 1), hence exactly 3 verification attempts — even if ambiguity
  // forces extra fixpoint passes. The b.kc copy of `pick` differs from
  // a.kc's in imm32 constants only, which run-pre content comparison
  // resolves directly.
  RunPreMatcher matcher(**machine);
  MatchStats stats;
  ks::Result<UnitMatch> match = matcher.MatchUnit(*pre, &stats);
  ASSERT_TRUE(match.ok()) << match.status().ToString();
  EXPECT_EQ(stats.sections_matched, 2u);
  EXPECT_EQ(stats.candidates_tried, 3u);
  EXPECT_EQ(stats.ambiguity_deferrals, 0u);
  EXPECT_EQ(stats.fixpoint_passes, 1u);

  // `pick` resolves to b.kc's own copy.
  bool bound_to_b = false;
  for (const kelf::LinkedSymbol& sym : (*machine)->SymbolsNamed("pick")) {
    if (sym.address == match->symbol_values.at("pick") && sym.unit == "b.kc") {
      bound_to_b = true;
    }
  }
  EXPECT_TRUE(bound_to_b);
}

TEST(ReportTest, JsonStringsEscapeControlCharacters) {
  // A run-pre diagnostic spans several lines and reaches a stale node's
  // rollout error verbatim; the report must still be valid JSON.
  RolloutNodeReport node;
  node.node = "n0";
  node.version = "v2.6.1";
  node.outcome = RolloutNodeOutcome::kSkippedStale;
  node.error = "a\n  b\"c\\";
  std::string json = node.ToJson();
  EXPECT_TRUE(ValidJson(json)) << json;
  EXPECT_EQ(json,
            R"({"node":"n0","version":"v2.6.1","wave":-1,"canary":false,)"
            R"("outcome":"skipped_stale","pause_ns":0,"attempts":0,)"
            R"("quiescence_retries":0,"functions_spliced":0,)"
            R"("soak_faults":0,"error":"a\n  b\"c\\"})");
  EXPECT_EQ(ks::JsonEscaped("\t\r\x01\x1f"), R"(\t\u000d\u0001\u001f)");

  // Without control characters only quote and backslash change, so such
  // strings serialize exactly as they did before control escaping.
  const std::string plain = "v2.6.1 \"quoted\" C:\\dir caf\xc3\xa9 ~";
  EXPECT_EQ(ks::JsonEscaped(plain), R"(v2.6.1 \"quoted\" C:\\dir caf)"
                                    "\xc3\xa9 ~");
}


// ------------------------------------------------------------ JSON goldens
//
// Byte-exact serializations of every report type, the per-CVE EvalOutcome
// and the metrics registry. The fixtures cover the edge values each
// serializer must spell the same way every time: negative ints, UINT64_MAX,
// a double that needs rounding, empty and multi-element arrays, string
// arrays, control characters, a finding with and without an offset, and a
// histogram observation in the unbounded bucket.

constexpr uint64_t kU64Max = UINT64_MAX;

MatchStats GoldenMatchStats() {
  MatchStats stats;
  stats.sections_matched = 1;
  stats.candidates_tried = 2;
  stats.run_bytes_matched = 3;
  stats.nop_bytes_skipped = 4;
  stats.reloc_sites_inverted = 5;
  stats.symbols_recovered = 6;
  stats.ambiguity_deferrals = 7;
  stats.fixpoint_passes = 8;
  stats.pre_bytes_canonicalized = 9;
  stats.run_bytes_canonicalized = 10;
  stats.revalidations = 11;
  stats.extable_sections_matched = 12;
  stats.bug_table_sections_matched = 13;
  stats.date_time_sections_matched = kU64Max;
  return stats;
}

LintFinding GoldenFinding(bool with_offset) {
  LintFinding finding;
  finding.rule = with_offset ? "KSA202" : "KSA301";
  finding.severity =
      with_offset ? LintSeverity::kError : LintSeverity::kNote;
  finding.pass = with_offset ? "cfg" : "abi";
  finding.unit = "kernel/sys.kc";
  finding.symbol = with_offset ? "sys_prctl" : "";
  finding.offset = 18;
  finding.has_offset = with_offset;
  finding.message = "line one\nline \"two\"\x01";
  finding.hint = with_offset ? "split the patch" : "";
  return finding;
}

LintReport GoldenLintReport() {
  LintReport report;
  report.id = "pkg-1";
  LintFinding warning = GoldenFinding(false);
  warning.severity = LintSeverity::kWarning;
  report.findings = {GoldenFinding(true), warning, GoldenFinding(false)};
  report.functions_scanned = 4;
  report.call_edges = 5;
  report.blocks_analyzed = 6;
  report.insns_decoded = kU64Max;
  report.data_sections_compared = 7;
  report.functions_summarized = 8;
  return report;
}

UnitReport GoldenUnit(bool hit) {
  UnitReport unit;
  unit.unit = hit ? "kernel/sys.kc" : "fs\\exec.kc";
  unit.pre_cache_hit = hit;
  unit.post_cache_hit = !hit;
  unit.pre_text_bytes = 4294967295u;
  unit.post_text_bytes = 100;
  unit.sections_compared = 9;
  unit.sections_changed = 2;
  unit.text_changed = 1;
  unit.data_changed = 1;
  return unit;
}

ChangedFunction GoldenChanged() {
  ChangedFunction fn;
  fn.unit = "kernel/sys.kc";
  fn.symbol = "sys_prctl";
  fn.change = "modified";
  fn.pre_size = 40;
  fn.post_size = 44;
  return fn;
}

CreateReport GoldenCreateReport() {
  CreateReport report;
  report.id = "CVE-2006-2451";
  report.units_rebuilt = 2;
  report.cache_hits = 1;
  report.cache_misses = 3;
  report.prepost_wall_ns = kU64Max;
  report.create_wall_ns = 123456789;
  report.targets = 1;
  report.units = {GoldenUnit(true), GoldenUnit(false)};
  report.changed_functions = {GoldenChanged()};
  report.lint.id = "CVE-2006-2451";
  report.lint.findings = {GoldenFinding(false)};
  return report;
}

SpliceRecord GoldenSplice() {
  SpliceRecord record;
  record.unit = "kernel/sys.kc";
  record.symbol = "sys_prctl";
  record.orig_address = 61456;
  record.repl_address = 4294967295u;
  record.code_size = 40;
  record.repl_size = 44;
  record.trampoline_bytes = 5;
  return record;
}

QuiescenceBlocker GoldenBlocker(int tid) {
  QuiescenceBlocker blocker;
  blocker.tid = tid;
  blocker.pc = 61460;
  blocker.hit_address = 61456;
  blocker.from_stack = tid < 0;
  return blocker;
}

StageTiming GoldenStage(const char* name, uint64_t wall_ns) {
  StageTiming stage;
  stage.stage = name;
  stage.wall_ns = wall_ns;
  return stage;
}

ApplyReport GoldenApplyReport() {
  ApplyReport report;
  report.id = "CVE-2006-2451";
  report.functions = {GoldenSplice()};
  report.match = GoldenMatchStats();
  report.attempts = 3;
  report.quiescence_retries = 2;
  report.pause_ns = kU64Max;
  report.retry_ticks = 40000;
  report.helper_bytes = 512;
  report.primary_bytes = 256;
  report.trampoline_bytes = 5;
  report.helper_retained = true;
  report.stages = {GoldenStage("Prepare", 10), GoldenStage("Commit", 20)};
  report.blockers = {};
  return report;
}

BatchApplyReport GoldenBatchApplyReport() {
  BatchApplyReport report;
  report.packages = 1;
  ApplyReport update;
  update.id = "a";
  report.updates = {update};
  report.attempts = -1;
  report.quiescence_retries = 0;
  report.pause_ns = 7;
  report.retry_ticks = kU64Max;
  report.functions_spliced = 3;
  report.stages = {};
  report.blockers = {GoldenBlocker(-1)};
  return report;
}

UndoReport GoldenUndoReport() {
  UndoReport report;
  report.id = "CVE-2006-2451";
  report.functions_restored = 1;
  report.attempts = 2;
  report.quiescence_retries = 1;
  report.pause_ns = 999;
  report.retry_ticks = 10000;
  report.bytes_restored = 5;
  report.primary_bytes_reclaimed = 256;
  report.helper_bytes_reclaimed = 0;
  report.out_of_order = true;
  report.chains_rewritten = 4;
  report.blockers = {GoldenBlocker(3), GoldenBlocker(-1)};
  return report;
}

AttributedFault GoldenFault() {
  AttributedFault fault;
  fault.update = "bad";
  fault.unit = "kern/watch.kc";
  fault.symbol = "watch_op";
  fault.tid = -1;
  fault.pc = 4294967295u;
  fault.tick = kU64Max;
  fault.reason = "kernel BUG at kern/watch.kc:6\t\x1f";
  return fault;
}

RevertReport GoldenRevertReport() {
  RevertReport report;
  report.id = "bad";
  report.package_hash = kU64Max;
  report.trigger = GoldenFault();
  report.detected_tick = 5000;
  report.attempts = 2;
  report.backoff_ticks = 1000;
  report.reverted = true;
  report.quarantined = false;
  report.error = "";
  report.undo.id = "bad";
  return report;
}

WatchdogReport GoldenWatchdogReport() {
  WatchdogReport report;
  report.window_ticks = 500000;
  report.samples = 100;
  report.faults_seen = 2;
  report.faults_attributed = 1;
  report.extable_fixups = kU64Max;
  report.stuck_threads = 1;
  report.panicked = false;
  report.window_closed = true;
  report.attributed = {};
  report.unattributed = {"oops at 0x10", "bad \"pc\"\n"};
  report.reverts = {GoldenRevertReport()};
  return report;
}

QuarantineEntry GoldenQuarantineEntry() {
  QuarantineEntry entry;
  entry.id = "bad";
  entry.package_hash = kU64Max;
  entry.evidence = "kernel BUG\n";
  entry.tid = -1;
  entry.pc = 61456;
  entry.tick = 42;
  return entry;
}

HealthStatus GoldenHealthStatus() {
  HealthStatus health;
  health.faults_total = kU64Max;
  health.faults_attributed = 2;
  health.extable_fixups = 3;
  health.dropped_log_lines = 4;
  health.panicked = true;
  AttributedFault module_only = GoldenFault();
  module_only.unit.clear();
  module_only.symbol.clear();
  health.attributed = {GoldenFault(), module_only};
  return health;
}

UpdateStatusRow GoldenStatusRow() {
  UpdateStatusRow row;
  row.id = "CVE-2005-0736";
  row.functions = 2;
  row.helper_loaded = false;
  row.helper_bytes = 0;
  row.primary_bytes = 300;
  row.trampoline_bytes = 10;
  row.attributed_faults = kU64Max;
  row.symbols = {"fs/eventpoll.kc:sys_epoll_wait", "fs/eventpoll.kc:ep_poll"};
  return row;
}

StatusReport GoldenStatusReport() {
  StatusReport status;
  UpdateStatusRow empty_row;
  empty_row.id = "empty";
  status.updates = {GoldenStatusRow(), empty_row};
  status.arena_bytes_in_use = 4096;
  status.quarantine = {GoldenQuarantineEntry()};
  return status;
}

RolloutNodeReport GoldenNodeReport() {
  RolloutNodeReport node;
  node.node = "node-007";
  node.version = "v2.6.3";
  node.wave = 2;
  node.canary = true;
  node.outcome = RolloutNodeOutcome::kAutoReverted;
  node.pause_ns = kU64Max;
  node.attempts = -1;
  node.quiescence_retries = 4;
  node.functions_spliced = 3;
  node.soak_faults = 1;
  node.error = "";
  return node;
}

RolloutWaveReport GoldenWaveReport() {
  RolloutWaveReport wave;
  wave.wave = -1;
  wave.canary = true;
  wave.nodes = 4;
  wave.patched = 1;
  wave.already_applied = 1;
  wave.skipped_stale = 1;
  wave.failed = 1;
  wave.auto_reverted = 0;
  wave.wall_ns = kU64Max;
  wave.max_pause_ns = 77;
  wave.tripped = true;
  return wave;
}

RolloutReport GoldenRolloutReport() {
  RolloutReport report;
  report.id = "CVE-2008-0600+CVE-2006-2451";
  report.fleet_size = 16;
  report.aborted = true;
  report.tripped_wave = -1;
  report.waves = 2;
  report.patched = 3;
  report.already_applied = 4;
  report.skipped_stale = 5;
  report.failed = 1;
  report.rolled_back = 2;
  report.auto_reverted = 1;
  report.not_attempted = 0;
  report.blacklisted = {"bad#18446744073709551615", "worse#1"};
  report.wall_ns = kU64Max;
  report.nodes_per_sec = 1234.56789;
  report.pause_p50_ns = 1024;
  report.pause_p99_ns = 2048;
  report.pause_max_ns = 4096;
  report.wave_reports = {GoldenWaveReport()};
  RolloutNodeReport stale;
  stale.node = "node-000";
  stale.version = "v2.6.1";
  stale.outcome = RolloutNodeOutcome::kSkippedStale;
  stale.error = "run-pre mismatch\n  at 0x10";
  report.nodes = {GoldenNodeReport(), stale};
  return report;
}

corpus::EvalOutcome GoldenEvalOutcome() {
  corpus::EvalOutcome outcome;
  outcome.cve = "CVE-2006-2451";
  outcome.patch_lines = -1;
  outcome.needed_custom_code = true;
  outcome.custom_code_lines = 12;
  outcome.create_ok = true;
  outcome.apply_ok = true;
  outcome.stress_ok = true;
  outcome.exploit_before = true;
  outcome.exploit_after = false;
  outcome.undo_ok = false;
  outcome.targets = 2;
  outcome.modified_inlined_function = true;
  outcome.declared_inline = false;
  outcome.references_ambiguous_symbol = true;
  outcome.touches_assembly = false;
  outcome.create_report.id = "CVE-2006-2451";
  outcome.apply_report.id = "CVE-2006-2451-custom";
  outcome.undo_report.id = "CVE-2006-2451-custom";
  return outcome;
}

const std::string kGoldenMatchStats =
    R"({"sections_matched":1,"candidates_tried":2,"run_bytes_matched":3,)"
    R"("nop_bytes_skipped":4,"reloc_sites_inverted":5,"symbols_recovered":6,)"
    R"("ambiguity_deferrals":7,"fixpoint_passes":8,)"
    R"("pre_bytes_canonicalized":9,"run_bytes_canonicalized":10,)"
    R"("revalidations":11,"extable_sections_matched":12,)"
    R"("bug_table_sections_matched":13,)"
    R"("date_time_sections_matched":18446744073709551615})";

const std::string kGoldenEmptyMatchStats =
    R"({"sections_matched":0,"candidates_tried":0,"run_bytes_matched":0,)"
    R"("nop_bytes_skipped":0,"reloc_sites_inverted":0,"symbols_recovered":0,)"
    R"("ambiguity_deferrals":0,"fixpoint_passes":0,)"
    R"("pre_bytes_canonicalized":0,"run_bytes_canonicalized":0,)"
    R"("revalidations":0,"extable_sections_matched":0,)"
    R"("bug_table_sections_matched":0,"date_time_sections_matched":0})";

const std::string kGoldenFindingWithOffset =
    R"({"rule":"KSA202","severity":"error","pass":"cfg",)"
    R"("unit":"kernel/sys.kc","symbol":"sys_prctl","offset":18,)"
    R"("message":"line one\nline \"two\"\u0001","hint":"split the patch"})";

const std::string kGoldenFindingWithoutOffset =
    R"({"rule":"KSA301","severity":"note","pass":"abi",)"
    R"("unit":"kernel/sys.kc","symbol":"",)"
    R"("message":"line one\nline \"two\"\u0001","hint":""})";

const std::string kGoldenLintReport =
    R"({"id":"pkg-1","errors":1,"warnings":1,"notes":1,"functions_scanned":4,)"
    R"("call_edges":5,"blocks_analyzed":6,)"
    R"("insns_decoded":18446744073709551615,"data_sections_compared":7,)"
    R"("functions_summarized":8,"findings":[)" +
    kGoldenFindingWithOffset +
    R"(,{"rule":"KSA301","severity":"warning","pass":"abi",)"
    R"("unit":"kernel/sys.kc","symbol":"",)"
    R"("message":"line one\nline \"two\"\u0001","hint":""},)" +
    kGoldenFindingWithoutOffset +
    "]}";

const std::string kGoldenEmptyLintReport =
    R"({"id":"","errors":0,"warnings":0,"notes":0,"functions_scanned":0,)"
    R"("call_edges":0,"blocks_analyzed":0,"insns_decoded":0,)"
    R"("data_sections_compared":0,"functions_summarized":0,"findings":[]})";

const std::string kGoldenUnit =
    R"({"unit":"kernel/sys.kc","pre_cache_hit":true,"post_cache_hit":false,)"
    R"("pre_text_bytes":4294967295,"post_text_bytes":100,)"
    R"("sections_compared":9,"sections_changed":2,"text_changed":1,)"
    R"("data_changed":1})";

const std::string kGoldenChanged =
    R"({"unit":"kernel/sys.kc","symbol":"sys_prctl","change":"modified",)"
    R"("pre_size":40,"post_size":44})";

const std::string kGoldenCreateReport =
    R"({"id":"CVE-2006-2451","units_rebuilt":2,"cache_hits":1,)"
    R"("cache_misses":3,"prepost_wall_ns":18446744073709551615,)"
    R"("create_wall_ns":123456789,"targets":1,"units":[)" +
    kGoldenUnit +
    R"(,{"unit":"fs\\exec.kc","pre_cache_hit":false,"post_cache_hit":true,)"
    R"("pre_text_bytes":4294967295,"post_text_bytes":100,)"
    R"("sections_compared":9,"sections_changed":2,"text_changed":1,)"
    R"("data_changed":1}],"changed_functions":[)" +
    kGoldenChanged +
    R"(],"lint":{"id":"CVE-2006-2451","errors":0,"warnings":0,"notes":1,)"
    R"("functions_scanned":0,"call_edges":0,"blocks_analyzed":0,)"
    R"("insns_decoded":0,"data_sections_compared":0,"functions_summarized":0,)"
    R"("findings":[)" +
    kGoldenFindingWithoutOffset +
    "]}}";

const std::string kGoldenSplice =
    R"({"unit":"kernel/sys.kc","symbol":"sys_prctl","orig_address":61456,)"
    R"("repl_address":4294967295,"code_size":40,"repl_size":44,)"
    R"("trampoline_bytes":5})";

const std::string kGoldenBlocker =
    R"({"tid":-1,"pc":61460,"hit_address":61456,"from_stack":true})";

const std::string kGoldenStage =
    R"({"stage":"Rendezvous","wall_ns":18446744073709551615})";

const std::string kGoldenApplyReport =
    R"({"id":"CVE-2006-2451","functions":[)" +
    kGoldenSplice +
    R"(],"match":)" +
    kGoldenMatchStats +
    R"(,"attempts":3,"quiescence_retries":2,"pause_ns":18446744073709551615,)"
    R"("retry_ticks":40000,"helper_bytes":512,"primary_bytes":256,)"
    R"("trampoline_bytes":5,"helper_retained":true,)"
    R"("stages":[{"stage":"Prepare","wall_ns":10},{"stage":"Commit",)"
    R"("wall_ns":20}],"blockers":[]})";

const std::string kGoldenBatchApplyReport =
    R"({"packages":1,"updates":[{"id":"a","functions":[],"match":)" +
    kGoldenEmptyMatchStats +
    R"(,"attempts":0,"quiescence_retries":0,"pause_ns":0,"retry_ticks":0,)"
    R"("helper_bytes":0,"primary_bytes":0,"trampoline_bytes":0,)"
    R"("helper_retained":false,"stages":[],"blockers":[]}],"attempts":-1,)"
    R"("quiescence_retries":0,"pause_ns":7,)"
    R"("retry_ticks":18446744073709551615,"functions_spliced":3,"stages":[],)"
    R"("blockers":[)" +
    kGoldenBlocker +
    "]}";

const std::string kGoldenUndoReport =
    R"({"id":"CVE-2006-2451","functions_restored":1,"attempts":2,)"
    R"("quiescence_retries":1,"pause_ns":999,"retry_ticks":10000,)"
    R"("bytes_restored":5,"primary_bytes_reclaimed":256,)"
    R"("helper_bytes_reclaimed":0,"out_of_order":true,"chains_rewritten":4,)"
    R"("blockers":[{"tid":3,"pc":61460,"hit_address":61456,)"
    R"("from_stack":false},)" +
    kGoldenBlocker +
    "]}";

const std::string kGoldenFault =
    R"({"update":"bad","unit":"kern/watch.kc","symbol":"watch_op","tid":-1,)"
    R"("pc":4294967295,"tick":18446744073709551615,)"
    R"("reason":"kernel BUG at kern/watch.kc:6\t\u001f"})";

const std::string kGoldenRevertReport =
    R"({"id":"bad","package_hash":18446744073709551615,"trigger":)" +
    kGoldenFault +
    R"(,"detected_tick":5000,"attempts":2,"backoff_ticks":1000,)"
    R"("reverted":true,"quarantined":false,"error":"","undo":{"id":"bad",)"
    R"("functions_restored":0,"attempts":0,"quiescence_retries":0,)"
    R"("pause_ns":0,"retry_ticks":0,"bytes_restored":0,)"
    R"("primary_bytes_reclaimed":0,"helper_bytes_reclaimed":0,)"
    R"("out_of_order":false,"chains_rewritten":0,"blockers":[]}})";

const std::string kGoldenWatchdogReport =
    R"({"window_ticks":500000,"samples":100,"faults_seen":2,)"
    R"("faults_attributed":1,"extable_fixups":18446744073709551615,)"
    R"("stuck_threads":1,"panicked":false,"window_closed":true,)"
    R"("attributed":[],"unattributed":["oops at 0x10","bad \"pc\"\n"],)"
    R"("reverts":[{"id":"bad","package_hash":18446744073709551615,"trigger":)" +
    kGoldenFault +
    R"(,"detected_tick":5000,"attempts":2,"backoff_ticks":1000,)"
    R"("reverted":true,"quarantined":false,"error":"","undo":{"id":"bad",)"
    R"("functions_restored":0,"attempts":0,"quiescence_retries":0,)"
    R"("pause_ns":0,"retry_ticks":0,"bytes_restored":0,)"
    R"("primary_bytes_reclaimed":0,"helper_bytes_reclaimed":0,)"
    R"("out_of_order":false,"chains_rewritten":0,"blockers":[]}}]})";

const std::string kGoldenQuarantineEntry =
    R"({"id":"bad","package_hash":18446744073709551615,)"
    R"("evidence":"kernel BUG\n","tid":-1,"pc":61456,"tick":42})";

const std::string kGoldenHealthStatus =
    R"({"faults_total":18446744073709551615,"faults_attributed":2,)"
    R"("extable_fixups":3,"dropped_log_lines":4,"panicked":true,)"
    R"("attributed":[)" +
    kGoldenFault +
    R"(,{"update":"bad","unit":"","symbol":"","tid":-1,"pc":4294967295,)"
    R"("tick":18446744073709551615,)"
    R"("reason":"kernel BUG at kern/watch.kc:6\t\u001f"}]})";

const std::string kGoldenStatusRow =
    R"({"id":"CVE-2005-0736","functions":2,"helper_loaded":false,)"
    R"("helper_bytes":0,"primary_bytes":300,"trampoline_bytes":10,)"
    R"("attributed_faults":18446744073709551615,)"
    R"("symbols":["fs/eventpoll.kc:sys_epoll_wait",)"
    R"("fs/eventpoll.kc:ep_poll"]})";

const std::string kGoldenStatusReport =
    R"({"updates":[)" +
    kGoldenStatusRow +
    R"(,{"id":"empty","functions":0,"helper_loaded":false,"helper_bytes":0,)"
    R"("primary_bytes":0,"trampoline_bytes":0,"attributed_faults":0,)"
    R"("symbols":[]}],"arena_bytes_in_use":4096,"health":{"faults_total":0,)"
    R"("faults_attributed":0,"extable_fixups":0,"dropped_log_lines":0,)"
    R"("panicked":false,"attributed":[]},"quarantine":[)" +
    kGoldenQuarantineEntry +
    "]}";

const std::string kGoldenNode =
    R"({"node":"node-007","version":"v2.6.3","wave":2,"canary":true,)"
    R"("outcome":"auto_reverted","pause_ns":18446744073709551615,)"
    R"("attempts":-1,"quiescence_retries":4,"functions_spliced":3,)"
    R"("soak_faults":1,"error":""})";

const std::string kGoldenWave =
    R"({"wave":-1,"canary":true,"nodes":4,"patched":1,"already_applied":1,)"
    R"("skipped_stale":1,"failed":1,"auto_reverted":0,)"
    R"("wall_ns":18446744073709551615,"max_pause_ns":77,"tripped":true})";

const std::string kGoldenRolloutReport =
    R"({"id":"CVE-2008-0600+CVE-2006-2451","fleet_size":16,"aborted":true,)"
    R"("tripped_wave":-1,"waves":2,"patched":3,"already_applied":4,)"
    R"("skipped_stale":5,"failed":1,"rolled_back":2,"auto_reverted":1,)"
    R"("not_attempted":0,"blacklisted":["bad#18446744073709551615",)"
    R"("worse#1"],"wall_ns":18446744073709551615,"nodes_per_sec":1234.568,)"
    R"("pause_p50_ns":1024,"pause_p99_ns":2048,"pause_max_ns":4096,)"
    R"("wave_reports":[)" +
    kGoldenWave +
    R"(],"nodes":[)" +
    kGoldenNode +
    R"(,{"node":"node-000","version":"v2.6.1","wave":-1,"canary":false,)"
    R"("outcome":"skipped_stale","pause_ns":0,"attempts":0,)"
    R"("quiescence_retries":0,"functions_spliced":0,"soak_faults":0,)"
    R"("error":"run-pre mismatch\n  at 0x10"}]})";

const std::string kGoldenEvalOutcome =
    R"({"cve":"CVE-2006-2451","patch_lines":-1,"needed_custom_code":true,)"
    R"("custom_code_lines":12,"create_ok":true,"apply_ok":true,)"
    R"("stress_ok":true,"exploit_before":true,"exploit_after":false,)"
    R"("undo_ok":false,"targets":2,"modified_inlined_function":true,)"
    R"("declared_inline":false,"references_ambiguous_symbol":true,)"
    R"("touches_assembly":false,"success":true,)"
    R"("create":{"id":"CVE-2006-2451","units_rebuilt":0,"cache_hits":0,)"
    R"("cache_misses":0,"prepost_wall_ns":0,"create_wall_ns":0,"targets":0,)"
    R"("units":[],"changed_functions":[],"lint":)" +
    kGoldenEmptyLintReport +
    R"(},"apply":{"id":"CVE-2006-2451-custom","functions":[],"match":)" +
    kGoldenEmptyMatchStats +
    R"(,"attempts":0,"quiescence_retries":0,"pause_ns":0,"retry_ticks":0,)"
    R"("helper_bytes":0,"primary_bytes":0,"trampoline_bytes":0,)"
    R"("helper_retained":false,"stages":[],"blockers":[]},)"
    R"("undo":{"id":"CVE-2006-2451-custom","functions_restored":0,)"
    R"("attempts":0,"quiescence_retries":0,"pause_ns":0,"retry_ticks":0,)"
    R"("bytes_restored":0,"primary_bytes_reclaimed":0,)"
    R"("helper_bytes_reclaimed":0,"out_of_order":false,"chains_rewritten":0,)"
    R"("blockers":[]}})";

const std::string kGoldenMetrics =
    R"({"counters":{"test.counter":18446744073709551615,"test.zero":0},)"
    R"("gauges":{"test.gauge":-7,"test.gauge_max":9223372036854775807},)"
    R"("histograms":{"test.empty":{"count":0,"sum":0,"min":0,"max":0,)"
    R"("mean":0.000,"buckets":[]},"test.hist_ns":{"count":4,"sum":7,"min":1,)"
    R"("max":18446744073709551615,"mean":1.750,"buckets":[{"le":1,"n":1},)"
    R"({"le":2,"n":1},{"le":8,"n":1},{"le":"inf","n":1}]},)"
    R"("test.odd":{"count":3,"sum":5,"min":1,"max":2,"mean":1.667,)"
    R"("buckets":[{"le":1,"n":1},{"le":2,"n":2}]}}})";

TEST(ReportJsonGoldenTest, MatchStatsAndLintReports) {
  EXPECT_EQ(GoldenMatchStats().ToJson(), kGoldenMatchStats);
  EXPECT_EQ(MatchStats().ToJson(), kGoldenEmptyMatchStats);
  EXPECT_EQ(GoldenFinding(true).ToJson(), kGoldenFindingWithOffset);
  EXPECT_EQ(GoldenFinding(false).ToJson(), kGoldenFindingWithoutOffset);
  EXPECT_EQ(GoldenLintReport().ToJson(), kGoldenLintReport);
  EXPECT_EQ(LintReport().ToJson(), kGoldenEmptyLintReport);
}

TEST(ReportJsonGoldenTest, CreateReports) {
  EXPECT_EQ(GoldenUnit(true).ToJson(), kGoldenUnit);
  EXPECT_EQ(GoldenChanged().ToJson(), kGoldenChanged);
  EXPECT_EQ(GoldenCreateReport().ToJson(), kGoldenCreateReport);
}

TEST(ReportJsonGoldenTest, ApplyAndUndoReports) {
  EXPECT_EQ(GoldenSplice().ToJson(), kGoldenSplice);
  EXPECT_EQ(GoldenBlocker(-1).ToJson(), kGoldenBlocker);
  EXPECT_EQ(GoldenStage("Rendezvous", kU64Max).ToJson(), kGoldenStage);
  EXPECT_EQ(GoldenApplyReport().ToJson(), kGoldenApplyReport);
  EXPECT_EQ(GoldenBatchApplyReport().ToJson(), kGoldenBatchApplyReport);
  EXPECT_EQ(GoldenUndoReport().ToJson(), kGoldenUndoReport);
}

TEST(ReportJsonGoldenTest, WatchdogReports) {
  EXPECT_EQ(GoldenFault().ToJson(), kGoldenFault);
  EXPECT_EQ(GoldenRevertReport().ToJson(), kGoldenRevertReport);
  EXPECT_EQ(GoldenWatchdogReport().ToJson(), kGoldenWatchdogReport);
  EXPECT_EQ(GoldenQuarantineEntry().ToJson(), kGoldenQuarantineEntry);
}

TEST(ReportJsonGoldenTest, StatusReports) {
  EXPECT_EQ(GoldenHealthStatus().ToJson(), kGoldenHealthStatus);
  EXPECT_EQ(GoldenStatusRow().ToJson(), kGoldenStatusRow);
  EXPECT_EQ(GoldenStatusReport().ToJson(), kGoldenStatusReport);
}

TEST(ReportJsonGoldenTest, RolloutReports) {
  EXPECT_EQ(GoldenNodeReport().ToJson(), kGoldenNode);
  EXPECT_EQ(GoldenWaveReport().ToJson(), kGoldenWave);
  EXPECT_EQ(GoldenRolloutReport().ToJson(), kGoldenRolloutReport);
}

TEST(ReportJsonGoldenTest, EvalOutcome) {
  EXPECT_EQ(GoldenEvalOutcome().ToJson(), kGoldenEvalOutcome);
}

TEST(ReportJsonGoldenTest, MetricsRegistry) {
  // A private registry, so instruments other tests registered in the
  // global one do not leak into the golden bytes.
  ks::MetricsRegistry registry;
  EXPECT_EQ(registry.ToJson(),
            R"({"counters":{},"gauges":{},"histograms":{}})");
  registry.GetCounter("test.counter").Add(kU64Max);
  registry.GetCounter("test.zero");
  registry.GetGauge("test.gauge").Set(-7);
  registry.GetGauge("test.gauge_max").Set(INT64_MAX);
  ks::Histogram& hist = registry.GetHistogram("test.hist_ns");
  for (uint64_t v : {uint64_t{1}, uint64_t{2}, uint64_t{5}, kU64Max}) {
    hist.Observe(v);  // kU64Max lands in the "le":"inf" bucket
  }
  ks::Histogram& odd = registry.GetHistogram("test.odd");
  for (uint64_t v : {1, 2, 2}) {
    odd.Observe(v);  // mean 5/3 rounds to 1.667
  }
  registry.GetHistogram("test.empty");
  EXPECT_EQ(registry.ToJson(), kGoldenMetrics);
}

}  // namespace
}  // namespace ksplice
