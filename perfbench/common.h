// Shared machinery for the repository benchmark: wall-clock spans
// recorded from the benchmark's own code, sample statistics, registry counter
// deltas, seeded shuffles, and the per-run result every workload fills.
//
// Nothing here reaches inside the pipeline: every timing is a span around
// one public call, and every count is a delta of ks::Metrics() counters or
// a field of a public report.

#ifndef KSPLICE_PERFBENCH_COMMON_H_
#define KSPLICE_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace kvm {
class Machine;
}

namespace perfbench {

// Nanoseconds on the steady clock since the process started.
uint64_t NowNs();

// ---------------------------------------------------------------------
// Spans. A Span always measures its own wall time (the metrics need it
// whether or not tracing is on); only while tracing is enabled does it
// also append a record to the in-memory trace. Parents come from a
// per-thread stack, so a span's children all ran on its thread. Every span
// carries the group id of its root: one CVE, chain pass or rollout.

struct SpanRecord {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t group = 0;
  uint32_t thread = 0;  // dense benchmark-thread index
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

void SetTracing(bool enabled);
bool Tracing();
// Removes and returns every recorded span.
std::vector<SpanRecord> TakeSpans();

class Span {
 public:
  // `name` must be a string literal. A span opened with no enclosing span
  // on its thread starts a new group.
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double ElapsedMs() const {
    return static_cast<double>(NowNs() - start_ns_) / 1e6;
  }

 private:
  const char* name_;
  uint64_t start_ns_;
  uint64_t id_ = 0;  // 0 when not recording
  uint64_t parent_ = 0;
  uint64_t group_ = 0;
};

// ---------------------------------------------------------------------
// Statistics.

class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  double Sum() const;
  double Median() const;  // 0 when empty
  // Nearest-rank percentile, 0 < q <= 1 (0 when empty).
  double Percentile(double q) const;
  // "n=…, p50 …, p90 …[, p99 …]": the median plus every percentile that
  // has at least ten samples beyond it.
  std::string Describe(const char* unit) const;

 private:
  std::vector<double> values_;
};

// Registry counter growth since construction.
class CounterDelta {
 public:
  CounterDelta();
  std::map<std::string, uint64_t> Take() const;

 private:
  std::map<std::string, uint64_t> start_;
};

// Value of `name` in a delta map (0 when absent).
uint64_t Get(const std::map<std::string, uint64_t>& delta,
             const std::string& name);

// a / b, or 0 when b is 0.
double Ratio(double a, double b);

// Seeded generator (splitmix64) and Fisher-Yates shuffle, so orders depend
// only on the seed and not on the standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

template <typename T>
void Shuffle(std::vector<T>& items, Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Below(i)]);
  }
}

// (address, size) of every kernel-image function, in kallsyms order
// (module symbols excluded).
using TextRanges = std::vector<std::pair<uint32_t, uint32_t>>;
TextRanges FunctionRanges(const kvm::Machine& machine);

// The bytes of `ranges`. Only text is compared across an apply/undo
// cycle: exploits and stress legitimately change kernel data.
std::vector<std::vector<uint8_t>> ReadText(const kvm::Machine& machine,
                                           const TextRanges& ranges);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// ---------------------------------------------------------------------
// One run.

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // span dump path ("" = none)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Output-check violations; any entry makes the run incorrect.
  std::vector<std::string> violations;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  // human-readable lines

  // Records a violation when `ok` is false; returns `ok`.
  bool Check(bool ok, const std::string& what);
  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

// The timed loop every workload shares. Runs `unit` (one CVE pass, kernel
// life or fleet life; it returns its measured wall ms) until `seconds` of
// measured time have accrued, always finishing whole units. Trace runs
// alternate untraced and traced units: the pairs give the tracing overhead
// (traced minus untraced wall per unit) under the same host conditions,
// and the traced units' spans give the phase table.
struct TimedLoop {
  Samples unit_ms_untraced;
  Samples unit_ms_traced;
  uint64_t measured_ns = 0;         // sum of unit walls
  uint64_t traced_measured_ns = 0;  // the traced units' share
  std::vector<SpanRecord> spans;    // traced units only
};
template <typename Fn>
TimedLoop RunTimed(const RunConfig& config, Fn&& unit) {
  TimedLoop loop;
  const double budget_ns = config.seconds * 1e9;
  for (int i = 0; static_cast<double>(loop.measured_ns) < budget_ns ||
                  (config.trace && i < 2) || i < 1;
       ++i) {
    const bool traced = config.trace && i % 2 == 1;
    SetTracing(traced);
    const double ms = unit();
    SetTracing(false);
    const auto ns = static_cast<uint64_t>(ms * 1e6);
    loop.measured_ns += ns;
    if (traced) {
      loop.unit_ms_traced.Add(ms);
      loop.traced_measured_ns += ns;
    } else {
      loop.unit_ms_untraced.Add(ms);
    }
  }
  loop.spans = TakeSpans();
  return loop;
}

// Every per-layer metric, in BENCHMARK.json order. A workload fills the
// layers it exercises and leaves the rest 0: that layer does no work there.
struct Layers {
  // kvm
  double boot_ms = 0;       // median BootKernel
  double exec_ms = 0;       // exploit + stress span time per op
  double mips = 0;          // kvm.instructions / exec time
  double threads = 0;       // largest thread table at the end of a pass
  // kcc / prepost / create
  double create_ms = 0;     // median CreateUpdate, lint off
  double units_compiled = 0;  // per op
  double objcache_hit_ratio = 0;
  double units_rebuilt = 0;   // per op
  double patch_ms = 0;        // median PatchFor / AmendedPatchFor
  // kanalyze
  double lint_ms = 0;
  double summary_hit_ratio = 0;
  // run-pre / transaction / rendezvous
  double apply_ms = 0;
  double match_ms = 0;
  double rendezvous_ms = 0;
  double bytes_matched = 0;     // per op
  double candidates_tried = 0;  // per op
  double quiescence_retries = 0;  // per op
  double pause_us_p50 = 0;
  // manager undo
  double undo_ms = 0;
  double undo_refusal_ratio = 0;
  double undo_out_of_order_frac = 0;
  // fleet / watchdog
  double fleet_build_ms = 0;
  double fleet_rollout_ms = 0;
  double fleet_stale_frac = 0;
  double fleet_node_pause_us_p99 = 0;
  double fleet_waves = 0;        // per rollout
  double watchdog_soaks = 0;     // per rollout
  double watchdog_auto_reverts = 0;
  // benchmark thread pool
  double worker_busy_frac = 0;
};

// What every workload reports at the end of a run.
struct Summary {
  Samples ops_per_s;     // the workload's operations per second, per unit
  Samples create_ms;     // create + lint per package
  Samples apply_ms;
  Samples undo_ms;
  Samples setup_s;       // repeated set-ups
  Layers layers;
  int lanes = 1;         // benchmark threads the traced spans ran on
};

// Emits every end-to-end metric, and in trace runs every per-layer metric,
// the tracing overhead and the phase table (as notes), into `result`.
void Finish(const RunConfig& config, const Summary& summary,
            const TimedLoop& loop, Result& result);

// The workloads (one file each).
Result RunCveSweep(const RunConfig& config);
Result RunStackChurn(const RunConfig& config);
Result RunFleetRollout(const RunConfig& config);

}  // namespace perfbench

#endif  // KSPLICE_PERFBENCH_COMMON_H_
