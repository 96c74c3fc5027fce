// Shared machinery of the end-to-end benchmark: options, the result
// record every workload fills, in-memory span tracing around the calls
// the benchmark makes into the program's layers, and small statistics.
//
// Spans are recorded by the benchmark's own code only (never inside the
// program): a Span guard around a call into a module's public function
// names the layer ("coding.encode" belongs to layer "coding"). With
// tracing off a guard costs one branch, so untraced runs time the same
// code path the traced run attributes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
[[nodiscard]] inline double ns_to_s(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";  // checkout root: scenario files live under it
  std::string trace_dir;   // the traced run writes its spans here
};

/// What one workload run reports. `attempted`/`failed` count operations
/// (generations or controller decisions); `violations` records every
/// failed correctness check, so correct() is false if any fired. Metric
/// values are keyed by name; names and units are fixed in metrics.hpp.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::map<std::string, double> values;

  void set(const std::string& name, double value) { values[name] = value; }
  void violation(std::string what);
  [[nodiscard]] bool correct() const { return violations.empty(); }
};

// ---------------------------------------------------------------- tracing

/// Per-name aggregate of closed spans.
struct SpanStats {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::vector<std::int64_t> durations_ns;
};

/// Single-threaded span recorder. Aggregates (per-name durations, per-
/// layer self time) are kept for every span; the raw spans are kept up to
/// a cap and written out as JSONL when the run ends.
class Tracer {
 public:
  bool enabled = false;

  [[nodiscard]] int open(const char* name);
  void close(int frame);

  [[nodiscard]] const SpanStats* stats(const char* name) const;
  [[nodiscard]] double mean_ns(const char* name) const;
  [[nodiscard]] double p50_ms(const char* name) const;
  /// Self time (span duration minus the time covered by its children)
  /// summed per layer, the layer being the span name up to its first '.'.
  [[nodiscard]] std::unordered_map<std::string, std::int64_t> layer_self_ns()
      const;
  /// Write the kept spans as JSONL: {"id","parent","name","start_ns",
  /// "end_ns"} with times relative to the first span. Returns false on
  /// I/O error.
  bool write_jsonl(const std::string& path) const;
  [[nodiscard]] std::uint64_t dropped_spans() const { return dropped_; }

 private:
  struct Frame {
    const char* name;
    std::int64_t start;
    std::int64_t child_ns;
    std::int64_t kept;  // index into spans_, or -1
  };
  struct Kept {
    const char* name;
    std::int64_t start, end;
    std::int64_t parent;
  };
  static constexpr std::size_t kMaxKept = 200000;

  std::vector<Frame> stack_;
  std::vector<Kept> spans_;
  std::unordered_map<const char*, SpanStats> by_name_;
  std::unordered_map<const char*, std::int64_t> self_by_name_;
  std::uint64_t dropped_ = 0;
};

Tracer& tracer();

/// RAII span around one call into a layer. `name` must be a string
/// literal ("layer.op"): spans are keyed by pointer.
class Span {
 public:
  explicit Span(const char* name)
      : frame_(tracer().enabled ? tracer().open(name) : -1) {}
  ~Span() {
    if (frame_ >= 0) tracer().close(frame_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int frame_;
};

// ------------------------------------------------------------- statistics

/// Nearest-rank quantile (q in [0,1]) of `v`; 0 for an empty vector.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& v);

/// 64-bit content digest used by the byte-equality checks.
[[nodiscard]] std::uint64_t digest(std::span<const std::uint8_t> bytes);

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// Same-process GF kernel ceilings: bulk_muladd and bulk_muladd_x4 on
/// 1460 B rows, in GB/s of source bytes read.
void add_gf_ceilings(Result& r);

/// Sum of the counters whose names start with `prefix` and end with
/// `suffix` (e.g. every "vnf.node.<n>.received").
[[nodiscard]] double sum_counters(
    const std::map<std::string, std::uint64_t>& counters,
    const std::string& prefix, const std::string& suffix);

/// The "counters" object of a MetricsRegistry::to_json() snapshot.
[[nodiscard]] std::map<std::string, std::uint64_t> counters_from_json(
    const std::string& json);

/// One JSON object describing the host and build, for the result header.
[[nodiscard]] std::string host_stamp_json();

/// Per-layer self-time shares (percent of all traced time), one metric
/// per layer the benchmark traces; layers without spans report 0.
void add_self_time_shares(Result& r);

/// Write the traced run's spans under opts.trace_dir (no-op when empty).
void write_trace(const Options& opts);

/// Simulated seconds over host seconds, summed across rounds: the run's
/// rate as a time average, which host-speed drift within a run disturbs
/// less than a median of a few rounds does.
struct RateSum {
  double sim_s = 0;
  double host_s = 0;
  void add(double sim, double host) {
    sim_s += sim;
    host_s += host;
  }
  [[nodiscard]] double rate() const { return host_s > 0 ? sim_s / host_s : 0; }
};

/// Round 0 warms caches, pools and threads, so the round-based rates
/// leave it out; every run makes at least this many rounds, which leaves
/// a traced and an untraced round after it.
constexpr int kMinRounds = 3;

/// Per-round work rates of a traced run, split by whether the round was
/// traced.
struct Rates {
  std::vector<double> untraced;
  std::vector<double> traced;
  /// Round 0 also warms caches, pools and threads, so it is left out.
  void add(int round, bool traced_round, double rate) {
    if (round > 0) (traced_round ? traced : untraced).push_back(rate);
  }
};
/// Tracing overhead in percent: how much slower the traced rounds ran
/// than the untraced rounds of the same run (medians of the per-round
/// work rates).
[[nodiscard]] double tracing_overhead_pct(const Rates& r);

}  // namespace perfbench
