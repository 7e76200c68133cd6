#include <sys/resource.h>

#include <algorithm>
#include <map>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "bench.h"
#include "plan/binder.h"
#include "server/json_util.h"
#include "sql/parser.h"

namespace agorabench {

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run reports (BENCHMARK.json lists the
/// same names). Workloads that do not exercise a layer report 0 for it.
constexpr MetricName kPerLayerMetrics[] = {
    {"sql.parse_us", "us"},
    {"plan.bind_us", "us"},
    {"optimizer.optimize_us", "us"},
    {"exec.execute_plan_us", "us"},
    {"engine.front_end_share", "ratio"},
    {"trace.parts_share", "ratio"},
    {"exec.op.Scan.self_ms", "ms"},
    {"exec.op.IndexScan.self_ms", "ms"},
    {"exec.op.Filter.self_ms", "ms"},
    {"exec.op.Project.self_ms", "ms"},
    {"exec.op.HashJoin.self_ms", "ms"},
    {"exec.op.HashAggregate.self_ms", "ms"},
    {"exec.op.Sort.self_ms", "ms"},
    {"exec.op.TopK.self_ms", "ms"},
    {"exec.op.Gather.self_ms", "ms"},
    {"exec.op.HybridSearch.self_ms", "ms"},
    {"exec.cpu_utilization", "ratio"},
    {"exec.parallel_speedup", "ratio"},
    {"exec.probe_steps_per_lookup", "ratio"},
    {"exec.bloom_reject_ratio", "ratio"},
    {"exec.ht_load_factor", "ratio"},
    {"exec.rows_joined", "count"},
    {"exec.rows_aggregated", "count"},
    {"expr.rows_evaluated", "count"},
    {"expr.sel_vector_hits", "count"},
    {"expr.filter_gathers_avoided", "count"},
    {"storage.rows_scanned", "count"},
    {"storage.blocks_skipped_ratio", "ratio"},
    {"storage.bytes_materialized", "bytes"},
    {"storage.spill_partitions", "count"},
    {"storage.spill_bytes_written", "bytes"},
    {"storage.spill_bytes_read", "bytes"},
    {"common.mem_reserved_peak_bytes", "bytes"},
    {"common.mem_budget_rejections", "count"},
    {"server.round_trip_us", "us"},
    {"server.handle_us", "us"},
    {"server.transport_us", "us"},
    {"server.json_decode_us", "us"},
    {"server.serialize_us", "us"},
    {"server.response_bytes", "bytes"},
    {"server.wait_other_us", "us"},
    {"server.op.point.round_trip_us", "us"},
    {"server.op.search.round_trip_us", "us"},
    {"server.op.hybrid.round_trip_us", "us"},
    {"server.op.range.round_trip_us", "us"},
    {"server.op.write.round_trip_us", "us"},
    {"server.rejected_ratio", "ratio"},
    {"server.timed_out", "count"},
    {"hybrid.filter_rows", "count"},
    {"hybrid.vector_distances", "count"},
    {"hybrid.overfetch_retries", "count"},
    {"hybrid.fusion_candidates", "count"},
};

/// Operator classes with a self-time metric. Phase pseudo-nodes
/// ("HashJoin::build") fold into their operator.
constexpr const char* kProfiledOps[] = {
    "Scan", "IndexScan", "Filter", "Project", "HashJoin",
    "HashAggregate", "Sort", "TopK", "Gather", "HybridSearch"};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.median = Median(values);
  const size_t n = values.size();
  const size_t idx99 =
      static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n))) - 1;
  size_t idx = idx99;
  if (n - 1 - idx99 < 10) idx = n >= 11 ? n - 11 : n - 1;
  s.tail = values[idx];
  s.tail_pct = idx == idx99 ? 99.0
                            : 100.0 * static_cast<double>(idx + 1) /
                                  static_cast<double>(n);
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  const double lo = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lo + hi);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string FirstDifference(const std::string& expected,
                            const std::string& actual) {
  size_t at = 0;
  while (at < expected.size() && at < actual.size() &&
         expected[at] == actual[at]) {
    ++at;
  }
  const size_t from = at > 24 ? at - 24 : 0;
  return "at byte " + std::to_string(at) + ": expected '" +
         expected.substr(from, 48) + "' got '" + actual.substr(from, 48) + "'";
}

std::string Digest(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int64_t HostSpeed::Sample() {
  static std::vector<uint64_t> small(size_t{1} << 16);  // 512 KiB
  static std::vector<uint64_t> large(size_t{1} << 21);  // 16 MiB
  const int64_t start = NowNs();
  uint64_t x = 0x9E3779B97F4A7C15ULL, sum = 0;
  auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
  };
  for (int run = 0; run < 3; ++run) {
    const int64_t t0 = NowNs();
    for (int i = 0; i < 100000; ++i) small[(next() >> 40) & 0xFFFF] += x;
    for (int i = 0; i < 10000; ++i) sum += large[(next() >> 30) & 0x1FFFFF];
    std::map<std::string, int64_t> words;
    std::vector<std::string> keys;
    for (int i = 0; i < 1000; ++i) {
      char word[32];
      std::snprintf(word, sizeof(word), "w%llu_%d",
                    static_cast<unsigned long long>((next() >> 33) % 997),
                    i % 7);
      keys.emplace_back(word);
      words[keys.back()] += i;
    }
    std::sort(keys.begin(), keys.end());
    sum += words.size() + keys.front().size();
    if (run > 0) probe_us.push_back(NsToUs(NowNs() - t0));
  }
  if ((small[x & 0xFFFF] ^ sum) == 1) std::fputc(' ', stderr);  // keeps the work
  return NowNs() - start;
}

double HostSpeed::TimeScale() const {
  if (probe_us.empty()) return 1.0;
  double sum = 0.0;
  for (double us : probe_us) sum += us;
  return kProbeReferenceUs * static_cast<double>(probe_us.size()) / sum;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// ---------------------------------------------------------------------------

double SpanTable::MedianUs(const std::string& name) const {
  auto it = duration_us.find(name);
  return it == duration_us.end() ? 0.0 : Median(it->second);
}

double SpanTable::SumUs(const std::string& name) const {
  auto it = duration_us.find(name);
  double sum = 0.0;
  if (it != duration_us.end()) {
    for (double v : it->second) sum += v;
  }
  return sum;
}

double SpanTable::MeanUs(const std::string& name) const {
  const size_t n = Count(name);
  return n > 0 ? SumUs(name) / static_cast<double>(n) : 0.0;
}

size_t SpanTable::Count(const std::string& name) const {
  auto it = duration_us.find(name);
  return it == duration_us.end() ? 0 : it->second.size();
}

SpanTable TabulateSpans(const std::vector<const SpanLog*>& logs) {
  SpanTable table;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      table.duration_us[span.name].push_back(
          NsToUs(span.end_ns - span.start_ns));
    }
  }
  return table;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "thread,request,name,parent,start_ns,end_ns\n");
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t]->spans()) {
      std::fprintf(out, "%zu,%lld,%s,%d,%lld,%lld\n", t,
                   static_cast<long long>(s.request), s.name, s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------------

agora::Result<agora::QueryResult> TracedSelect(agora::Database* db,
                                               const std::string& sql,
                                               SpanLog* log, int64_t request,
                                               int32_t parent) {
  int32_t span = log->Begin("sql.parse", request, parent);
  agora::Result<agora::Statement> stmt = agora::ParseStatement(sql);
  log->End(span);
  if (!stmt.ok()) return stmt.status();
  const auto* select = std::get_if<agora::SelectStatement>(&stmt->node);
  if (select == nullptr || stmt->explain) {
    return agora::Status::InvalidArgument("traced path runs plain SELECTs");
  }
  span = log->Begin("plan.bind", request, parent);
  agora::Binder binder(db->catalog());
  agora::Result<agora::LogicalOpPtr> bound = binder.BindSelect(*select);
  log->End(span);
  if (!bound.ok()) return bound.status();
  span = log->Begin("optimizer.optimize", request, parent);
  agora::Result<agora::LogicalOpPtr> plan =
      db->optimizer().Optimize(std::move(bound).value());
  log->End(span);
  if (!plan.ok()) return plan.status();
  span = log->Begin("exec.execute_plan", request, parent);
  agora::Result<agora::QueryResult> result = db->ExecutePlan(*plan);
  log->End(span);
  return result;
}

// ---------------------------------------------------------------------------

void ExecTotals::Add(const agora::QueryResult& result) {
  agora::ExecStats counters = result.stats();
  counters.op_timings.clear();  // op ids are per plan; self times go below
  stats.Merge(counters);
  for (const agora::OperatorProfileNode& node : result.profile()) {
    const std::string op = node.name.substr(0, node.name.find("::"));
    op_self_ns[op] += node.busy_ns;
  }
  ++statements;
}

// ---------------------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  metrics_[name] = Entry{value, unit, samples};
}

void Report::AdjustedMetric(const std::string& name, double raw,
                            double factor, const std::string& unit,
                            size_t samples) {
  Metric(name, raw * factor, unit, samples);
  InfoNumber("raw." + name, raw);
}

void Report::Info(const std::string& key, const std::string& value) {
  info_[key] = value;
}

void Report::InfoNumber(const std::string& key, double value) {
  info_numbers_[key] = value;
}

void Report::Attempts(int64_t attempted, int64_t failed,
                      const std::vector<std::string>& errors) {
  attempted_ += attempted;
  failed_ += failed;
  for (const std::string& e : errors) {
    if (errors_.size() < 20) errors_.push_back(e);
  }
}

void Report::Mismatch(const std::string& what) {
  if (mismatches_.size() < 20) {
    mismatches_.push_back(what);
  } else if (mismatches_.size() == 20) {
    mismatches_.push_back("... further mismatches not logged");
  }
}

void Report::ExecMetrics(const ExecTotals& totals) {
  const agora::ExecStats& s = totals.stats;
  const size_t n = static_cast<size_t>(totals.statements);
  const double per = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  auto per_stmt = [&](const char* name, int64_t v, const char* unit) {
    Metric(name, static_cast<double>(v) * per, unit, n);
  };
  for (const char* op : kProfiledOps) {
    auto it = totals.op_self_ns.find(op);
    const int64_t ns = it == totals.op_self_ns.end() ? 0 : it->second;
    Metric(std::string("exec.op.") + op + ".self_ms", NsToMs(ns) * per, "ms",
           n);
  }
  Metric("exec.probe_steps_per_lookup",
         Ratio(static_cast<double>(s.hash_table_probe_steps),
               static_cast<double>(s.hash_table_lookups)),
         "ratio", n);
  Metric("exec.bloom_reject_ratio",
         Ratio(static_cast<double>(s.bloom_filtered_rows),
               static_cast<double>(s.bloom_checked_rows)),
         "ratio", n);
  Metric("exec.ht_load_factor",
         Ratio(static_cast<double>(s.hash_table_entries),
               static_cast<double>(s.hash_table_slots)),
         "ratio", n);
  per_stmt("exec.rows_joined", s.rows_joined, "count");
  per_stmt("exec.rows_aggregated", s.rows_aggregated, "count");
  per_stmt("expr.rows_evaluated", s.expr_rows_evaluated, "count");
  per_stmt("expr.sel_vector_hits", s.sel_vector_hits, "count");
  per_stmt("expr.filter_gathers_avoided", s.filter_gathers_avoided, "count");
  per_stmt("storage.rows_scanned", s.rows_scanned, "count");
  Metric("storage.blocks_skipped_ratio",
         Ratio(static_cast<double>(s.blocks_skipped),
               static_cast<double>(s.blocks_read + s.blocks_skipped)),
         "ratio", n);
  per_stmt("storage.bytes_materialized", s.bytes_materialized, "bytes");
  per_stmt("storage.spill_partitions", s.spill_partitions, "count");
  per_stmt("storage.spill_bytes_written", s.spill_bytes_written, "bytes");
  per_stmt("storage.spill_bytes_read", s.spill_bytes_read, "bytes");
  Metric("common.mem_reserved_peak_bytes",
         static_cast<double>(s.mem_bytes_reserved_peak), "bytes", n);
  per_stmt("hybrid.filter_rows", s.hybrid_filter_rows, "count");
  per_stmt("hybrid.vector_distances", s.vector_distances, "count");
  per_stmt("hybrid.overfetch_retries", s.overfetch_retries, "count");
  per_stmt("hybrid.fusion_candidates", s.fusion_candidates, "count");
}

void Report::FillUnexercisedLayers() {
  for (const MetricName& m : kPerLayerMetrics) {
    if (metrics_.count(m.name) == 0) Metric(m.name, 0.0, m.unit, 0);
  }
}

bool Report::Write(const std::string& path, const Options& options) const {
  std::string out = "{\n";
  out += "  \"workload\": " + agora::JsonQuote(options.workload) + ",\n";
  out += "  \"seed\": " + std::to_string(options.seed) + ",\n";
  out += "  \"trace\": " + std::string(options.trace ? "1" : "0") + ",\n";
  out += "  \"seconds\": " + Number(options.seconds) + ",\n";
  out += "  \"tiny\": " + std::string(options.tiny ? "true" : "false") + ",\n";
  out += "  \"correct\": " + std::string(correct() ? "true" : "false") + ",\n";
  out += "  \"attempted\": " + std::to_string(attempted_) + ",\n";
  out += "  \"failed\": " + std::to_string(failed_) + ",\n";
  auto strings = [&out](const char* key, const std::vector<std::string>& v) {
    out += std::string("  \"") + key + "\": [";
    for (size_t i = 0; i < v.size(); ++i) {
      out += (i ? ", " : "") + agora::JsonQuote(v[i]);
    }
    out += "],\n";
  };
  strings("mismatches", mismatches_);
  strings("errors", errors_);
  out += "  \"build\": {\"type\": " + agora::JsonQuote(AGORA_BENCH_BUILD_TYPE) +
         ", \"compiler\": " + agora::JsonQuote(AGORA_BENCH_COMPILER) +
         ", \"flags\": " + agora::JsonQuote(AGORA_BENCH_CXX_FLAGS) + "},\n";
  out += "  \"info\": {";
  bool first = true;
  for (const auto& [key, value] : info_) {
    out += std::string(first ? "" : ", ") + agora::JsonQuote(key) + ": " +
           agora::JsonQuote(value);
    first = false;
  }
  for (const auto& [key, value] : info_numbers_) {
    out += std::string(first ? "" : ", ") + agora::JsonQuote(key) + ": " +
           Number(value);
    first = false;
  }
  out += "},\n  \"metrics\": {\n";
  first = true;
  for (const auto& [name, e] : metrics_) {
    out += std::string(first ? "" : ",\n") + "    " + agora::JsonQuote(name) +
           ": {\"value\": " + Number(e.value) +
           ", \"unit\": " + agora::JsonQuote(e.unit) +
           ", \"samples\": " + std::to_string(e.samples) + "}";
    first = false;
  }
  out += "\n  }\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && wrote;
}

}  // namespace agorabench
