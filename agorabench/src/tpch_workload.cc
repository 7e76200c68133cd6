// Workloads `tpch_olap` and `tpch_budget`: one closed-loop stream of
// TPC-H Q1, Q3, Q5, Q6, Q10, Q12 and Q14 through Database::Execute, the
// query order permuted per pass by the seed. After each query the stream
// appends one row to a side table (`bench_log`), the embedded write path.
// `tpch_budget` runs the same stream under a fixed engine memory budget.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "server/query_handler.h"
#include "tpch/tpch.h"

namespace agorabench {
namespace {

using agora::Database;
using agora::QueryResult;
using agora::Result;

struct Query {
  const char* name;
  std::string sql;
};

std::vector<Query> Queries() {
  return {{"Q1", agora::TpchQ1()},   {"Q3", agora::TpchQ3()},
          {"Q5", agora::TpchQ5()},   {"Q6", agora::TpchQ6()},
          {"Q10", agora::TpchQ10()}, {"Q12", agora::TpchQ12()},
          {"Q14", agora::TpchQ14()}};
}

/// One acknowledged `bench_log` row.
struct LogRow {
  int64_t seq, pass, query, rows;
};

/// Set-up: TPC-H data from the seed plus the empty side table.
Result<std::unique_ptr<Database>> BuildDatabase(double sf, uint64_t seed) {
  auto db = std::make_unique<Database>();
  agora::TpchOptions tpch;
  tpch.scale_factor = sf;
  tpch.seed = seed;
  AGORA_RETURN_IF_ERROR(agora::GenerateTpch(tpch, &db->catalog()));
  Result<QueryResult> created = db->Execute(
      "CREATE TABLE bench_log (seq BIGINT, pass BIGINT, query BIGINT, "
      "nrows BIGINT)");
  if (!created.ok()) return created.status();
  return db;
}

/// The side table must hold exactly the acknowledged writes, in order.
void CheckLog(Database* db, const std::vector<LogRow>& model,
              Report* report) {
  Result<QueryResult> rows = db->Execute(
      "SELECT seq, pass, query, nrows FROM bench_log ORDER BY seq");
  if (!rows.ok()) {
    report->Mismatch("bench_log read failed: " + rows.status().ToString());
    return;
  }
  if (rows->num_rows() != model.size()) {
    report->Mismatch("bench_log holds " + std::to_string(rows->num_rows()) +
                     " rows, " + std::to_string(model.size()) +
                     " writes were acknowledged");
    return;
  }
  for (size_t r = 0; r < model.size(); ++r) {
    const LogRow& want = model[r];
    if (rows->Get(r, 0).int64_value() != want.seq ||
        rows->Get(r, 1).int64_value() != want.pass ||
        rows->Get(r, 2).int64_value() != want.query ||
        rows->Get(r, 3).int64_value() != want.rows) {
      report->Mismatch("bench_log row " + std::to_string(r) +
                       " differs from the acknowledged write");
      return;
    }
  }
}

}  // namespace

int RunTpch(const Options& options, Report* report) {
  const bool budgeted = options.workload == "tpch_budget";
  const double sf = options.tiny ? 0.01 : 0.1;
  const std::vector<Query> queries = Queries();

  // Set-up, repeated; setup_s is the median. Only the last database stays.
  std::unique_ptr<Database> db;
  std::vector<double> setup_s;
  HostSpeed setup_speed;  // sampled around every repetition
  for (int rep = 0; rep < kSetupReps; ++rep) {
    db.reset();
    setup_speed.Sample();
    const int64_t start = NowNs();
    Result<std::unique_ptr<Database>> built = BuildDatabase(sf, options.seed);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 2;
    }
    db = std::move(built).value();
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  setup_speed.Sample();

  // Reference answers: kPoolThreads workers, no budget. The measured
  // stream runs at kWorkers, so the check crosses two configurations;
  // the engine promises the same bytes at every thread count and budget.
  db->set_memory_budget(0);
  db->set_execution_threads(kPoolThreads);
  std::vector<std::string> reference;
  for (const Query& q : queries) {
    Result<QueryResult> result = db->Execute(q.sql);
    if (!result.ok()) {
      std::fprintf(stderr, "reference %s failed: %s\n", q.name,
                   result.status().ToString().c_str());
      return 2;
    }
    reference.push_back(agora::QueryHandler::SerializeResultJson(*result));
    report->Info(std::string("digest.") + q.name, Digest(reference.back()));
  }
  if (options.corrupt_reference) {
    reference[0][reference[0].size() / 2] ^= 0x01;
  }

  db->set_execution_threads(kWorkers);
  if (budgeted) {
    db->set_spill_dir(options.work_dir);
    db->set_memory_budget(kTpchBudgetBytes);
  }
  report->InfoNumber("budget_bytes",
                     budgeted ? static_cast<double>(kTpchBudgetBytes) : 0.0);
  report->InfoNumber("scale_factor", sf);
  report->InfoNumber("workers", kWorkers);
  report->InfoNumber("reference_workers", kPoolThreads);
  report->InfoNumber("pool_threads", kPoolThreads);

  // Warm-up passes, untimed and uncounted; their answers are still
  // checked.
  const int64_t warm_until =
      NowNs() + static_cast<int64_t>(options.warmup_seconds * 1e9);
  for (size_t i = 0; i < queries.size() || NowNs() < warm_until; ++i) {
    const size_t q = i % queries.size();
    Result<QueryResult> result = db->Execute(queries[q].sql);
    if (!result.ok()) continue;
    const std::string got = agora::QueryHandler::SerializeResultJson(*result);
    if (got != reference[q]) {
      report->Mismatch(std::string("warm-up ") + queries[q].name +
                       " differs from the reference " +
                       FirstDifference(reference[q], got));
      break;
    }
  }

  agora::Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 1);
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<std::vector<double>> query_ms(queries.size());
  std::vector<double> read_ms, write_ms;
  std::vector<LogRow> model;
  ExecTotals totals;
  std::vector<int64_t> peak_bytes(queries.size(), 0);
  HostSpeed speed;
  int64_t probe_ns = 0;
  SpanLog log;
  int64_t request = 0, pass = 0, ok_statements = 0;
  const double rejections_before =
      db->metrics().CounterValue("mem_budget_rejections_total");

  const double cpu_start = ProcessCpuSeconds();
  const int64_t start = NowNs();
  const int64_t deadline =
      start + static_cast<int64_t>(options.seconds * 1e9);
  for (bool done = false; !done; ++pass) {
    probe_ns += speed.Sample();
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<size_t>(
                    rng.Uniform(0, static_cast<int64_t>(i) - 1))]);
    }
    for (size_t q : order) {
      if (NowNs() >= deadline) {
        done = true;
        break;
      }
      const int64_t id = request++;
      const int64_t t0 = NowNs();
      Result<QueryResult> result = [&]() -> Result<QueryResult> {
        if (!options.trace) return db->Execute(queries[q].sql);
        const int32_t root = log.Begin("engine.statement", id);
        Result<QueryResult> traced =
            TracedSelect(db.get(), queries[q].sql, &log, id, root);
        log.End(root);
        return traced;
      }();
      const double ms = NsToMs(NowNs() - t0);
      int64_t rows = -1;
      if (!result.ok()) {
        report->Attempts(1, 1, {std::string(queries[q].name) + ": " +
                                result.status().ToString()});
      } else if (const std::string got =
                     agora::QueryHandler::SerializeResultJson(*result);
                 got != reference[q]) {
        report->Attempts(1, 1);
        report->Mismatch(std::string(queries[q].name) + " in pass " +
                         std::to_string(pass) + " differs from the reference " +
                         FirstDifference(reference[q], got));
      } else {
        report->Attempts(1, 0);
        ++ok_statements;
        rows = static_cast<int64_t>(result->num_rows());
        query_ms[q].push_back(ms);
        read_ms.push_back(ms);
        if (options.trace) {
          totals.Add(*result);
          peak_bytes[q] = std::max(peak_bytes[q],
                                   result->stats().mem_bytes_reserved_peak);
        }
      }

      const LogRow row{static_cast<int64_t>(model.size()), pass,
                       static_cast<int64_t>(q), rows};
      const std::string insert =
          "INSERT INTO bench_log VALUES (" + std::to_string(row.seq) + ", " +
          std::to_string(row.pass) + ", " + std::to_string(row.query) + ", " +
          std::to_string(row.rows) + ")";
      const int64_t w0 = NowNs();
      const int32_t span =
          options.trace ? log.Begin("engine.write", request++) : -1;
      Result<QueryResult> written = db->Execute(insert);
      if (span >= 0) log.End(span);
      write_ms.push_back(NsToMs(NowNs() - w0));
      if (written.ok()) {
        report->Attempts(1, 0);
        model.push_back(row);
        ++ok_statements;
      } else {
        report->Attempts(1, 1,
                         {"bench_log insert: " + written.status().ToString()});
      }
    }
  }
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
  const double cpu_s = ProcessCpuSeconds() - cpu_start;
  CheckLog(db.get(), model, report);

  // End-to-end metrics; timings at the reference host speed.
  const double scale = speed.TimeScale();
  report->AdjustedMetric("setup_s", Median(setup_s), setup_speed.TimeScale(),
                         "s", setup_s.size());
  report->AdjustedMetric(
      "qps", static_cast<double>(ok_statements) / (wall_s - probe_ns / 1e9),
      1.0 / scale, "1/s", static_cast<size_t>(ok_statements));
  const Summary reads = Summarize(read_ms);
  report->AdjustedMetric("latency_p50_ms", reads.median, scale, "ms", reads.n);
  report->AdjustedMetric("latency_p99_ms", reads.tail, scale, "ms", reads.n);
  report->InfoNumber("latency_p99_ms.percentile", reads.tail_pct);
  std::vector<double> medians;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (query_ms[q].empty()) continue;
    medians.push_back(Median(query_ms[q]));
    report->InfoNumber(std::string("query_ms.") + queries[q].name,
                       medians.back());
    report->InfoNumber(std::string("query_samples.") + queries[q].name,
                       static_cast<double>(query_ms[q].size()));
  }
  report->AdjustedMetric("geomean_query_ms", GeoMean(medians), scale, "ms",
                         medians.size());
  const Summary writes = Summarize(write_ms);
  report->AdjustedMetric("write_latency_p50_ms", writes.median, scale, "ms",
                         writes.n);
  report->AdjustedMetric("write_latency_p99_ms", writes.tail, scale, "ms",
                         writes.n);
  report->InfoNumber("write_latency_p99_ms.percentile", writes.tail_pct);
  report->Metric("failed_ratio",
                 static_cast<double>(report->failed()) /
                     static_cast<double>(std::max<int64_t>(1, report->attempted())),
                 "ratio", static_cast<size_t>(report->attempted()));
  report->Metric("rss_peak_mb", PeakRssMb(), "MB", 1);
  report->InfoNumber("passes", static_cast<double>(pass));
  report->InfoNumber("host_probe_us", kProbeReferenceUs / scale);
  report->InfoNumber("host_probe_samples",
                     static_cast<double>(speed.probe_us.size()));
  report->InfoNumber("wall_s", wall_s);

  if (!options.trace) return 0;

  // Scaling probe, outside the measured window: every query at 1 and at
  // kPoolThreads workers, alternating, best of two each.
  double serial_ms = 0.0, parallel_ms = 0.0;
  for (const Query& q : queries) {
    double best[2] = {1e300, 1e300};
    for (int rep = 0; rep < 4; ++rep) {
      db->set_execution_threads(rep % 2 == 0 ? 1 : kPoolThreads);
      const int64_t t0 = NowNs();
      Result<QueryResult> result = db->Execute(q.sql);
      if (!result.ok()) break;
      best[rep % 2] = std::min(best[rep % 2], NsToMs(NowNs() - t0));
    }
    if (best[0] < 1e300 && best[1] < 1e300) {
      serial_ms += best[0];
      parallel_ms += best[1];
    }
  }
  db->set_execution_threads(kWorkers);
  report->Metric("exec.parallel_speedup",
                 parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0, "ratio",
                 queries.size());

  // Coverage probe, outside the measured window: every query alternately
  // untraced through Database::Execute and as its four traced parts,
  // three times each. trace.parts_share is the share of Execute's time
  // that the parts explain (sums of per-query medians), so it shows
  // whether the spans cover what the untraced run times.
  double execute_sum_ms = 0.0, parts_sum_ms = 0.0;
  for (const Query& q : queries) {
    std::vector<double> execute_ms, parts_ms;
    for (int rep = 0; rep < 6; ++rep) {
      if (rep % 2 == 0) {
        const int64_t t0 = NowNs();
        Result<QueryResult> result = db->Execute(q.sql);
        if (!result.ok()) break;
        execute_ms.push_back(NsToMs(NowNs() - t0));
        continue;
      }
      SpanLog parts;
      Result<QueryResult> result =
          TracedSelect(db.get(), q.sql, &parts, request++, -1);
      if (!result.ok()) break;
      int64_t ns = 0;
      for (const Span& span : parts.spans()) ns += span.end_ns - span.start_ns;
      parts_ms.push_back(NsToMs(ns));
    }
    if (execute_ms.size() != 3 || parts_ms.size() != 3) continue;
    execute_sum_ms += Median(execute_ms);
    parts_sum_ms += Median(parts_ms);
  }
  report->Metric("trace.parts_share",
                 execute_sum_ms > 0 ? parts_sum_ms / execute_sum_ms : 0.0,
                 "ratio", queries.size());

  // Per-layer metrics from the spans and the engine's counters.
  const std::vector<const SpanLog*> logs = {&log};
  const SpanTable spans = TabulateSpans(logs);
  const size_t n = spans.Count("engine.statement");
  report->Metric("sql.parse_us", spans.MedianUs("sql.parse"), "us", n);
  report->Metric("plan.bind_us", spans.MedianUs("plan.bind"), "us", n);
  report->Metric("optimizer.optimize_us", spans.MedianUs("optimizer.optimize"),
                 "us", n);
  report->Metric("exec.execute_plan_us", spans.MedianUs("exec.execute_plan"),
                 "us", n);
  const double front_us = spans.SumUs("sql.parse") + spans.SumUs("plan.bind") +
                          spans.SumUs("optimizer.optimize");
  const double total_us = spans.SumUs("engine.statement");
  report->Metric("engine.front_end_share",
                 total_us > 0 ? front_us / total_us : 0.0, "ratio", n);
  report->Metric("exec.cpu_utilization",
                 cpu_s / (wall_s * kPoolThreads),
                 "ratio", 1);
  report->ExecMetrics(totals);
  report->Metric(
      "common.mem_budget_rejections",
      (db->metrics().CounterValue("mem_budget_rejections_total") -
       rejections_before) /
          static_cast<double>(std::max<size_t>(1, n)),
      "count", n);
  for (size_t q = 0; q < queries.size(); ++q) {
    report->InfoNumber(std::string("mem_peak_bytes.") + queries[q].name,
                       static_cast<double>(peak_bytes[q]));
  }
  report->FillUnexercisedLayers();
  if (!options.spans_path.empty() && !WriteSpans(options.spans_path, logs)) {
    std::fprintf(stderr, "cannot write %s\n", options.spans_path.c_str());
  }
  return 0;
}

}  // namespace agorabench
