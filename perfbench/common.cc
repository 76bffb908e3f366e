#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>

#include "base/metrics.h"
#include "base/strings.h"
#include "kvm/machine.h"

namespace perfbench {

uint64_t NowNs() {
  static const auto kStart = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - kStart)
          .count());
}

// ---------------------------------------------------------------------
// Spans.

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint32_t> g_next_thread{0};
std::mutex g_spans_mu;
std::vector<SpanRecord>* g_spans = new std::vector<SpanRecord>();

struct ThreadTrace {
  uint32_t index = g_next_thread.fetch_add(1);
  std::vector<std::pair<uint64_t, uint64_t>> open;  // (id, group)
};
thread_local ThreadTrace t_trace;

}  // namespace

void SetTracing(bool enabled) { g_tracing.store(enabled); }
bool Tracing() { return g_tracing.load(); }

std::vector<SpanRecord> TakeSpans() {
  std::lock_guard<std::mutex> lock(g_spans_mu);
  std::vector<SpanRecord> out;
  out.swap(*g_spans);
  return out;
}

Span::Span(const char* name) : name_(name), start_ns_(NowNs()) {
  if (!Tracing()) {
    return;
  }
  id_ = g_next_id.fetch_add(1);
  if (t_trace.open.empty()) {
    group_ = id_;
  } else {
    parent_ = t_trace.open.back().first;
    group_ = t_trace.open.back().second;
  }
  t_trace.open.emplace_back(id_, group_);
}

Span::~Span() {
  if (id_ == 0) {
    return;
  }
  t_trace.open.pop_back();
  SpanRecord record;
  record.name = name_;
  record.id = id_;
  record.parent = parent_;
  record.group = group_;
  record.thread = t_trace.index;
  record.start_ns = start_ns_;
  record.end_ns = NowNs();
  std::lock_guard<std::mutex> lock(g_spans_mu);
  g_spans->push_back(record);
}

// ---------------------------------------------------------------------
// Statistics.

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) {
    sum += v;
  }
  return sum;
}

double Samples::Median() const {
  if (values_.empty()) {
    return 0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : (sorted[n / 2 - 1] + sorted[n / 2]) / 2;
}

double Samples::Percentile(double q) const {
  if (values_.empty()) {
    return 0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(
                                                      sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

std::string Samples::Describe(const char* unit) const {
  std::string out = ks::StrPrintf("n=%zu, p50 %.4f %s", values_.size(),
                                  Median(), unit);
  for (double q : {0.9, 0.99}) {
    if (static_cast<double>(values_.size()) * (1 - q) >= 10) {
      out += ks::StrPrintf(", p%.0f %.4f %s", q * 100, Percentile(q), unit);
    }
  }
  return out;
}

CounterDelta::CounterDelta() : start_(ks::Metrics().CounterValues()) {}

std::map<std::string, uint64_t> CounterDelta::Take() const {
  std::map<std::string, uint64_t> delta = ks::Metrics().CounterValues();
  for (auto& [name, value] : delta) {
    auto it = start_.find(name);
    if (it != start_.end()) {
      value -= it->second;
    }
  }
  return delta;
}

uint64_t Get(const std::map<std::string, uint64_t>& delta,
             const std::string& name) {
  auto it = delta.find(name);
  return it == delta.end() ? 0 : it->second;
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TextRanges FunctionRanges(const kvm::Machine& machine) {
  TextRanges ranges;
  for (const kelf::LinkedSymbol& sym : machine.Kallsyms()) {
    if (sym.kind == kelf::SymbolKind::kFunction &&
        sym.address < machine.kernel_end() && sym.size != 0) {
      ranges.emplace_back(sym.address, sym.size);
    }
  }
  return ranges;
}

std::vector<std::vector<uint8_t>> ReadText(const kvm::Machine& machine,
                                           const TextRanges& ranges) {
  std::vector<std::vector<uint8_t>> text;
  for (const auto& [address, size] : ranges) {
    ks::Result<std::vector<uint8_t>> bytes = machine.ReadBytes(address, size);
    text.push_back(bytes.ok() ? std::move(bytes).value()
                              : std::vector<uint8_t>{});
  }
  return text;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool Result::Check(bool ok, const std::string& what) {
  if (!ok) {
    violations.push_back(what);
  }
  return ok;
}

// ---------------------------------------------------------------------
// Phase table and span dump.

namespace {

// Self time per span name (ns): each span's duration minus the union of
// its direct children's intervals.
std::map<std::string, uint64_t> SelfTimes(
    const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      children[span.parent].push_back(&span);
    }
  }
  std::map<std::string, uint64_t> self;
  for (const SpanRecord& span : spans) {
    std::vector<std::pair<uint64_t, uint64_t>> covered;
    for (const SpanRecord* child : children[span.id]) {
      covered.emplace_back(std::max(child->start_ns, span.start_ns),
                           std::min(child->end_ns, span.end_ns));
    }
    std::sort(covered.begin(), covered.end());
    uint64_t child_ns = 0;
    uint64_t cursor = span.start_ns;
    for (const auto& [begin, end] : covered) {
      uint64_t from = std::max(begin, cursor);
      if (end > from) {
        child_ns += end - from;
        cursor = end;
      }
    }
    self[span.name] += (span.end_ns - span.start_ns) - child_ns;
  }
  return self;
}

bool WriteSpans(const std::string& path, const std::string& workload,
                uint64_t seed, const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"group\":" << s.group << ",\"thread\":" << s.thread
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace

void Finish(const RunConfig& config, const Summary& summary,
            const TimedLoop& loop, Result& result) {
  result.E2e("ops_per_s", summary.ops_per_s.Median(), "1/s");
  result.E2e("create_ms_p50", summary.create_ms.Median(), "ms");
  result.E2e("create_ms_p90", summary.create_ms.Percentile(0.9), "ms");
  result.E2e("apply_ms_p50", summary.apply_ms.Median(), "ms");
  result.E2e("apply_ms_p90", summary.apply_ms.Percentile(0.9), "ms");
  result.E2e("undo_ms_p50", summary.undo_ms.Median(), "ms");
  result.E2e("setup_s", summary.setup_s.Median(), "s");
  result.E2e("peak_rss_mb", PeakRssMb(), "MB");
  result.Note("ops per second, per unit: " + summary.ops_per_s.Describe("/s"));
  result.Note("create+lint: " + summary.create_ms.Describe("ms"));
  result.Note("apply: " + summary.apply_ms.Describe("ms"));
  result.Note("undo: " + summary.undo_ms.Describe("ms"));
  result.Note("setup: " + summary.setup_s.Describe("s"));

  const Layers& l = summary.layers;
  for (const auto& [name, value, unit] : std::vector<Metric>{
           {"kvm.boot_ms", l.boot_ms, "ms"},
           {"kvm.exec_ms", l.exec_ms, "ms/op"},
           {"kvm.mips", l.mips, "Minstr/s"},
           {"kvm.threads", l.threads, "count"},
           {"ksplice.create_ms", l.create_ms, "ms"},
           {"kcc.units_compiled", l.units_compiled, "count/op"},
           {"kcc.objcache.hit_ratio", l.objcache_hit_ratio, "ratio"},
           {"prepost.units_rebuilt", l.units_rebuilt, "count/op"},
           {"corpus.patch_ms", l.patch_ms, "ms"},
           {"kanalyze.lint_ms", l.lint_ms, "ms"},
           {"kanalyze.summary_hit_ratio", l.summary_hit_ratio, "ratio"},
           {"ksplice.apply_ms", l.apply_ms, "ms"},
           {"ksplice.match_ms", l.match_ms, "ms"},
           {"ksplice.rendezvous_ms", l.rendezvous_ms, "ms"},
           {"runpre.bytes_matched", l.bytes_matched, "count/op"},
           {"runpre.candidates_tried", l.candidates_tried, "count/op"},
           {"ksplice.quiescence_retries", l.quiescence_retries, "count/op"},
           {"ksplice.pause_us_p50", l.pause_us_p50, "us"},
           {"ksplice.undo_ms", l.undo_ms, "ms"},
           {"ksplice.undo_refusal_ratio", l.undo_refusal_ratio, "ratio"},
           {"ksplice.undo_out_of_order_frac", l.undo_out_of_order_frac,
            "ratio"},
           {"fleet.build_ms", l.fleet_build_ms, "ms"},
           {"fleet.rollout_ms", l.fleet_rollout_ms, "ms"},
           {"fleet.stale_frac", l.fleet_stale_frac, "ratio"},
           {"fleet.node_pause_us_p99", l.fleet_node_pause_us_p99, "us"},
           {"fleet.waves", l.fleet_waves, "count/op"},
           {"watchdog.soaks", l.watchdog_soaks, "count/op"},
           {"watchdog.auto_reverts", l.watchdog_auto_reverts, "count"},
           {"sweep.worker_busy_frac", l.worker_busy_frac, "ratio"},
       }) {
    result.Layer(name, value, unit);
  }
  if (!config.trace) {
    return;
  }
  // Tracing overhead: traced minus untraced wall per unit of work.
  double untraced = loop.unit_ms_untraced.Median();
  double traced = loop.unit_ms_traced.Median();
  result.Note(ks::StrPrintf(
      "tracing overhead: %+.4f ms per unit (traced %.4f ms, n=%zu; untraced "
      "%.4f ms, n=%zu)",
      traced - untraced, traced, loop.unit_ms_traced.size(), untraced,
      loop.unit_ms_untraced.size()));
  result.Layer("trace.overhead_frac", Ratio(traced - untraced, untraced),
               "ratio");

  // Phase table over the traced units: thread time per span name divided
  // by the lane count, plus the lane time no span covered.
  const int lanes = summary.lanes;
  const double wall_ms = static_cast<double>(loop.traced_measured_ns) / 1e6;
  std::vector<std::pair<std::string, double>> rows;
  double attributed_ms = 0;
  for (const auto& [name, ns] : SelfTimes(loop.spans)) {
    double ms = static_cast<double>(ns) / 1e6 / lanes;
    rows.emplace_back(name, ms);
    attributed_ms += ms;
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  rows.emplace_back("unattributed", wall_ms - attributed_ms);
  result.Note(ks::StrPrintf(
      "phase table: %s, traced wall %.3f ms, self time per layer / %d lane%s",
      config.workload.c_str(), wall_ms, lanes, lanes == 1 ? "" : "s"));
  double total_ms = 0;
  for (const auto& [name, ms] : rows) {
    total_ms += ms;
    result.Note(ks::StrPrintf("  %-22s %12.3f ms %7.2f%%", name.c_str(), ms,
                              100 * Ratio(ms, wall_ms)));
  }
  result.Note(ks::StrPrintf("  %-22s %12.3f ms %7.2f%%", "sum (= wall)",
                            total_ms, 100 * Ratio(total_ms, wall_ms)));
  result.Layer("phase.unattributed_frac",
               Ratio(wall_ms - attributed_ms, wall_ms), "ratio");
  if (!config.trace_out.empty()) {
    result.Check(WriteSpans(config.trace_out, config.workload, config.seed,
                            loop.spans),
                 "could not write spans to " + config.trace_out);
    result.Note(ks::StrPrintf("%zu spans written to %s", loop.spans.size(),
                              config.trace_out.c_str()));
  }
}

}  // namespace perfbench
