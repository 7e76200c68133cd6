#ifndef AGORABENCH_BENCH_H_
#define AGORABENCH_BENCH_H_

// Shared pieces of the AgoraDB benchmark: run options, latency
// summaries, the in-memory span log used by traced runs, per-statement
// engine counters, and the result report every workload fills.
//
// Everything here measures the engine from outside: spans wrap calls
// into the library's public functions, and counters are read from what
// the engine already exports (QueryResult::stats()/profile(), /metrics).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/database.h"

namespace agorabench {

/// Engine memory budget of the `tpch_budget` workload: 2 MiB, the
/// largest power of two below the unlimited reservation peaks of Q3, Q5
/// and Q10 at SF 0.1 (2.6, 3.5 and 5.3 MiB), so their joins and
/// aggregates spill. A fixed constant, never derived from a peak
/// measured at run time, which would move with the code under test.
inline constexpr int64_t kTpchBudgetBytes = int64_t{2} << 20;

/// Threads of the engine's global pool: the host's 4 cores.
inline constexpr int kPoolThreads = 4;

/// Worker tasks per measured query (Database::set_execution_threads).
/// One, because the host's speed at 4 workers follows hypervisor steal
/// (BENCHMARK.md, "Steadiness"); tpch_olap's reference answers and its
/// traced scaling probe run at kPoolThreads instead.
inline constexpr int kWorkers = 1;

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small data (TPC-H SF 0.01, 2k docs) for the benchmark's self-test.
  bool tiny = false;
  /// Flips one byte of one reference answer so the answer check must
  /// fire (self-test only).
  bool corrupt_reference = false;
  /// Untimed, unchecked-for-speed traffic before the measured window,
  /// so allocator and cache state settle first.
  double warmup_seconds = 2.0;
  /// Detail JSON written at the end (required).
  std::string out_path;
  /// Span CSV written at the end of a traced run (optional).
  std::string spans_path;
  /// Scratch directory for spill files (inside the checkout).
  std::string work_dir = ".";
};

// ---------------------------------------------------------------------------
// Timing helpers

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the first call in this process.
int64_t NowNs();

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Median and tail of a sample. The tail is p99 when at least ten
/// samples lie beyond it, otherwise the highest nearest-rank percentile
/// that still has ten samples beyond it (`tail_pct` says which).
struct Summary {
  size_t n = 0;
  double median = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
};
Summary Summarize(std::vector<double> values);
double Median(std::vector<double> values);
double GeoMean(const std::vector<double>& values);


/// Where two answers first differ, for mismatch messages:
/// "at byte N: expected '...' got '...'".
std::string FirstDifference(const std::string& expected,
                            const std::string& actual);

/// FNV-1a 64-bit digest, printed as 16 hex digits.
std::string Digest(const std::string& bytes);

/// Peak resident set size of this process, in MiB (getrusage).
double PeakRssMb();
/// Process CPU time (all threads) in seconds.
double ProcessCpuSeconds();

// ---------------------------------------------------------------------------
// Host speed. The shared host's speed swings by up to 1.6x in regimes of
// tens of seconds (BENCHMARK.md, "Steadiness"). A fixed kernel of the
// benchmark's own, run between statements, measures that speed during
// the measured window, and timing metrics are reported at a reference
// speed.

/// The probe's time at the reference speed, in microseconds: about its
/// time on the 4-core host when no other tenant slows it.
inline constexpr double kProbeReferenceUs = 750.0;

struct HostSpeed {
  std::vector<double> probe_us;

  /// Runs the probe. Its kernel mixes the kinds of work the engine does:
  /// updates to a cache-resident table, random reads of a 16 MiB table,
  /// and string formatting, map inserts and a sort, which allocate and
  /// branch. The kernel runs three times; the first run warms the tables
  /// and the other two are kept. Returns the wall time spent, in ns.
  int64_t Sample();
  /// Factor turning a raw time into the time at the reference speed:
  /// kProbeReferenceUs / the mean probe time. A rate divides by it.
  double TimeScale() const;
};

// ---------------------------------------------------------------------------
// Spans: one append-only log per thread, merged when the run ends.

struct Span {
  const char* name;  // static string
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;    // index into the same log, -1 for a root span
  int64_t request;   // request id shared by all spans of one request
};

class SpanLog {
 public:
  int32_t Begin(const char* name, int64_t request, int32_t parent = -1) {
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }
  int64_t DurationNs(int32_t id) const {
    const Span& s = spans_[static_cast<size_t>(id)];
    return s.end_ns - s.start_ns;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per-name span durations, in microseconds.
struct SpanTable {
  std::map<std::string, std::vector<double>> duration_us;

  double MedianUs(const std::string& name) const;
  double MeanUs(const std::string& name) const;
  double SumUs(const std::string& name) const;
  size_t Count(const std::string& name) const;
};
SpanTable TabulateSpans(const std::vector<const SpanLog*>& logs);

/// Writes every span as CSV (thread,request,name,parent,start_ns,end_ns).
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

// ---------------------------------------------------------------------------
// Engine counters of executed plans, folded per statement.

struct ExecTotals {
  agora::ExecStats stats;  // additive counters; the peak merges as a max
  std::map<std::string, int64_t> op_self_ns;  // by operator class
  int64_t statements = 0;

  void Add(const agora::QueryResult& result);
};

// ---------------------------------------------------------------------------
// The report: metrics by name with unit and sample count, run counts and
// answer mismatches.

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples);
  /// Records `raw * factor` as the metric and `raw` as info `raw.<name>`.
  void AdjustedMetric(const std::string& name, double raw, double factor,
                      const std::string& unit, size_t samples);
  void Info(const std::string& key, const std::string& value);
  void InfoNumber(const std::string& key, double value);

  /// Counts measured statements; failures log up to 20 `errors`.
  void Attempts(int64_t attempted, int64_t failed,
                const std::vector<std::string>& errors = {});
  /// Logs a wrong answer. Any mismatch makes the run incorrect.
  void Mismatch(const std::string& what);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return mismatches_.empty(); }

  /// Emits the per-layer metrics from a traced run's engine counters.
  void ExecMetrics(const ExecTotals& totals);
  /// Gives every per-layer metric the workload did not exercise the
  /// value 0, so each traced run reports the full set.
  void FillUnexercisedLayers();

  /// Writes the detail JSON; false on I/O failure.
  bool Write(const std::string& path, const Options& options) const;

 private:
  struct Entry {
    double value;
    std::string unit;
    size_t samples;
  };
  std::map<std::string, Entry> metrics_;
  std::map<std::string, std::string> info_;
  std::map<std::string, double> info_numbers_;
  std::vector<std::string> mismatches_;
  std::vector<std::string> errors_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Runs one SELECT through the engine's layers one public call at a
/// time — ParseStatement, Binder::BindSelect, Optimizer::Optimize,
/// Database::ExecutePlan — recording a span for each under `parent`.
/// Database::Execute makes the same calls in the same order.
agora::Result<agora::QueryResult> TracedSelect(agora::Database* db,
                                               const std::string& sql,
                                               SpanLog* log, int64_t request,
                                               int32_t parent);

/// Workload entry points; each returns the process exit code.
int RunTpch(const Options& options, Report* report);
int RunServe(const Options& options, Report* report);

}  // namespace agorabench

#endif  // AGORABENCH_BENCH_H_
