#ifndef AGORA_COMMON_METRICS_H_
#define AGORA_COMMON_METRICS_H_

// Engine-wide observability primitives.
//
// Three layers, bottom up:
//
//   1. OpTiming / MetricSpan — per-operator *self time* accounting.
//      A MetricSpan is a scoped timer that records the busy time of one
//      operator invocation into a slot of a flat OpTiming vector (one
//      slot per physical operator, indexed by the operator id handed
//      out by ExecContext::RegisterOp). Spans form a per-thread stack:
//      when a child span closes it subtracts its duration from the
//      enclosing span, so every slot accumulates exclusive (self) time
//      regardless of how deeply Next() calls nest. Each worker writes
//      to its own OpTiming vector (the same per-worker-slot discipline
//      ExecStats already uses), so no synchronization is needed on the
//      hot path; slots merge additively at the pipeline barrier.
//
//   2. OperatorProfileNode / RenderProfileTree — a plan-shaped view of
//      the merged timings used by EXPLAIN ANALYZE (time, rows, % of
//      total busy time per operator).
//
//   3. MetricsRegistry — named counters, gauges and fixed-bucket
//      histograms owned by Database, exported as a JSON document or
//      Prometheus text exposition. Counters are monotonic doubles
//      (Prometheus counters are floats); an optional label distinguishes
//      per-operator series. Histograms use one registry-wide bucket
//      ladder tuned for request latencies in seconds.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace agora {

/// Additive per-operator timing slot. Lives in ExecStats::op_timings,
/// one entry per physical operator id.
struct OpTiming {
  int64_t busy_ns = 0;      ///< exclusive (self) time, nanoseconds
  int64_t rows_out = 0;     ///< rows emitted by the operator
  int64_t invocations = 0;  ///< Open/Next calls, or morsel-path spans

  void Merge(const OpTiming& other) {
    busy_ns += other.busy_ns;
    rows_out += other.rows_out;
    invocations += other.invocations;
  }
};

/// Scoped self-time timer for one operator invocation. Non-copyable;
/// construct on the stack around the work to attribute. A span with a
/// null vector or negative op id is a no-op (disabled path costs two
/// clock reads and a few branches).
///
/// The slot is resolved by index at destruction time, never held as a
/// pointer, because the owning vector may be resized (worker-stat
/// merges, nested registration) while the span is open.
class MetricSpan {
 public:
  MetricSpan(std::vector<OpTiming>* timings, MetricSpan** stack_top,
             int op_id);
  ~MetricSpan();

  MetricSpan(const MetricSpan&) = delete;
  MetricSpan& operator=(const MetricSpan&) = delete;

  /// Credits `n` rows to this operator's slot when the span closes.
  void AddRows(int64_t n) { rows_ += n; }

  /// Counts `ns` as time spent in children: it is subtracted from this
  /// span's self time. Used when child work happens outside a nested
  /// MetricSpan (e.g. a morsel pipeline driven on worker threads whose
  /// busy time lands in per-worker slots).
  void AddChildTime(int64_t ns) { child_ns_ += ns; }

 private:
  std::vector<OpTiming>* timings_;
  MetricSpan** stack_top_;
  MetricSpan* parent_ = nullptr;
  int op_id_;
  int64_t rows_ = 0;
  int64_t child_ns_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// One operator in a plan-shaped profile (pre-order, `depth` gives the
/// tree indentation).
struct OperatorProfileNode {
  std::string name;
  int depth = 0;
  int64_t busy_ns = 0;
  int64_t rows_out = 0;
  int64_t invocations = 0;
};

/// Renders the EXPLAIN ANALYZE per-operator tree: one line per node
/// with self time, share of total busy time, rows and invocations.
std::string RenderProfileTree(const std::vector<OperatorProfileNode>& nodes);

/// Export formats understood by MetricsRegistry and
/// Database::MetricsSnapshot().
enum class MetricsFormat {
  kJson,        ///< one JSON object: {"counters": {...}, "gauges": {...}}
  kPrometheus,  ///< Prometheus text exposition format (version 0.0.4)
};

/// Thread-safe named counters, gauges and histograms. Counter series may
/// carry one label value (used for per-operator breakdowns, label key
/// "op"); the empty label is the unlabeled series. Names must match
/// [a-zA-Z_][a-zA-Z0-9_]* — enforced in debug builds only.
class MetricsRegistry {
 public:
  /// Upper bounds (inclusive, seconds) of the shared histogram bucket
  /// ladder; every histogram gets one extra implicit +Inf bucket. Spans
  /// sub-millisecond point lookups to multi-second analytical scans.
  static constexpr double kHistogramBounds[] = {0.001, 0.005, 0.025,
                                                0.1,   0.5,   2.5};
  static constexpr size_t kHistogramBuckets =
      sizeof(kHistogramBounds) / sizeof(kHistogramBounds[0]) + 1;  // +Inf

  /// Adds `delta` to counter `name` (label ""). Creates it at zero first.
  void Add(std::string_view name, double delta);

  /// Adds `delta` to the labeled series `name{op="label"}`.
  void Add(std::string_view name, std::string_view label, double delta);

  /// Sets gauge `name` to `value` (last-write-wins).
  void SetGauge(std::string_view name, double value);

  /// Records one observation into histogram `name` (created on first
  /// use). Buckets are cumulative Prometheus-style: the observation
  /// lands in every bucket whose bound is >= `value`, plus +Inf.
  void Observe(std::string_view name, double value);

  /// Observation count of histogram `name`; 0 if absent.
  int64_t HistogramCount(std::string_view name) const;

  /// Sum of all observations of histogram `name`; 0 if absent.
  double HistogramSum(std::string_view name) const;

  /// Cumulative per-bucket counts of histogram `name` (kHistogramBuckets
  /// entries, last = +Inf); empty if absent.
  std::vector<int64_t> HistogramBucketCounts(std::string_view name) const;

  /// Current value of counter `name` with `label` ("" = unlabeled);
  /// 0 if absent.
  double CounterValue(std::string_view name, std::string_view label = "") const;

  /// Current value of gauge `name`; 0 if absent.
  double GaugeValue(std::string_view name) const;

  /// All registered metric names (counters and gauges), sorted.
  std::vector<std::string> Names() const;

  /// Serializes every counter and gauge. JSON shape:
  ///   {"counters": {"name": v, "name2": {"label": v, ...}, ...},
  ///    "gauges": {"name": v, ...}}
  /// Prometheus lines are prefixed with "agora_" and labeled series
  /// render as name{op="label"} value.
  std::string Snapshot(MetricsFormat format) const;

  /// Resets every counter and gauge to empty.
  void Reset();

 private:
  struct Histogram {
    int64_t buckets[kHistogramBuckets] = {};  // non-cumulative per bucket
    double sum = 0.0;
    int64_t count = 0;
  };

  mutable Mutex mu_;
  // name -> (label -> value); "" is the unlabeled series.
  std::map<std::string, std::map<std::string, double>> counters_
      AGORA_GUARDED_BY(mu_);
  std::map<std::string, double> gauges_ AGORA_GUARDED_BY(mu_);
  std::map<std::string, Histogram> histograms_ AGORA_GUARDED_BY(mu_);
};

}  // namespace agora

#endif  // AGORA_COMMON_METRICS_H_
