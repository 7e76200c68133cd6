// Workload `serve_mixed`: an in-process HttpServer over TPC-H plus a
// hybrid document collection, driven by one closed-loop client. Requests
// are short reads drawn by the seed — point lookups by key, MATCH keyword
// search, filter+MATCH+KNN hybrid search, range reads of a few hundred
// rows — plus ~10% writes (INSERT/UPDATE) to a benchmark-created side
// table, which take the engine's exclusive lock.
//
// The measured door is the server's own QueryHandler::Handle, called
// with no socket in between (BENCHMARK.md, "Steadiness", says why). The
// traced run first spends half its time on HTTP round trips over one
// keep-alive connection (client-timed, with /metrics deltas), then calls
// Handle and replays each read's parts — ParseJson, the engine layers,
// SerializeResultJson — right after it.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "hybrid/collection.h"
#include "server/http_client.h"
#include "server/json_util.h"
#include "server/query_handler.h"
#include "server/server.h"
#include "tpch/tpch.h"

namespace agorabench {
namespace {

using agora::QueryHandler;
using agora::QueryResult;
using agora::Result;

constexpr size_t kDim = 32;

enum Kind { kPoint, kSearch, kHybrid, kRange, kWrite, kNumKinds };
constexpr const char* kKindNames[kNumKinds] = {"point", "search", "hybrid",
                                               "range", "write"};
/// Share of writes: the workload's "about 10%". Reads split evenly over
/// the four read kinds, as bench/bench_http.cc rotates evenly through
/// its served queries.
constexpr double kWriteShare = 0.10;
/// Distinct requests per read kind (BENCHMARK.md gives the basis).
constexpr size_t kReadsPerKind = 256;
/// Side-table keys. Once all are inserted, writes are UPDATEs, so the
/// table (and the cost of a write) stops growing and a run's numbers do
/// not depend on its length.
constexpr size_t kSideKeys = 64;

/// The served engine. Member order matters: the server, declared after
/// the collection that owns its Database, is destroyed (and stopped)
/// first.
struct Served {
  std::unique_ptr<agora::HybridCollection> collection;
  std::unique_ptr<agora::HttpServer> server;
  std::vector<agora::Vecf> centroids;
  std::vector<std::string> topics;

  agora::Database* db() { return &collection->database(); }
};

/// Set-up: seeded documents with their indexes, seeded TPC-H in the same
/// catalog, the key index for point reads, the side table, server start.
Result<std::unique_ptr<Served>> BuildServed(const Options& options,
                                            double sf, size_t docs) {
  auto served = std::make_unique<Served>();
  agora::SyntheticHybridData synthetic =
      agora::MakeSyntheticHybridData(docs, kDim, 8, options.seed);
  served->centroids = synthetic.topic_centroids;
  served->topics = synthetic.topic_names;
  served->collection =
      std::make_unique<agora::HybridCollection>(synthetic.attr_schema, kDim);
  for (agora::HybridDoc& doc : synthetic.docs) {
    Result<int64_t> id = served->collection->Add(std::move(doc));
    if (!id.ok()) return id.status();
  }
  AGORA_RETURN_IF_ERROR(served->collection->BuildIndexes());
  agora::TpchOptions tpch;
  tpch.scale_factor = sf;
  tpch.seed = options.seed;
  AGORA_RETURN_IF_ERROR(agora::GenerateTpch(tpch, &served->db()->catalog()));
  for (const char* ddl :
       {"CREATE INDEX orders_key ON orders (o_orderkey)",
        "CREATE TABLE bench_side (k BIGINT, v BIGINT, note VARCHAR)"}) {
    Result<QueryResult> done = served->db()->Execute(ddl);
    if (!done.ok()) return done.status();
  }
  served->db()->set_execution_threads(kWorkers);

  agora::ServerOptions server_options;
  server_options.port = 0;
  server_options.max_connections = kPoolThreads + 8;
  server_options.max_concurrent_queries = kPoolThreads;
  server_options.max_queued_queries = 4 * kPoolThreads;
  served->server =
      std::make_unique<agora::HttpServer>(served->db(), server_options);
  AGORA_RETURN_IF_ERROR(served->server->Start());
  return served;
}

std::string Body(const std::string& sql) {
  return "{\"sql\": " + agora::JsonQuote(sql) + "}";
}

/// One read request with its expected response bytes.
struct Read {
  std::string body;
  std::string expected;
};

/// Seeded read pools, one per read kind.
Result<std::vector<std::vector<Read>>> MakeReadPools(Served* served,
                                                     uint64_t seed, double sf,
                                                     bool tiny) {
  agora::Rng rng(seed * 0xD1B54A32D192ED03ULL + 7);
  const int64_t orders = agora::TpchRowsAtScale("orders", sf);
  const size_t per_kind = tiny ? 16 : kReadsPerKind;
  std::vector<std::vector<std::string>> sql(kWrite);
  for (size_t i = 0; i < per_kind; ++i) {
    sql[kPoint].push_back(
        "SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice, "
        "o_orderdate FROM orders WHERE o_orderkey = " +
        std::to_string(rng.Uniform(1, orders)));
  }
  auto topic = [&]() {
    return served->topics[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(served->topics.size()) - 1))];
  };
  for (size_t i = 0; i < per_kind; ++i) {
    const std::string name = topic();
    sql[kSearch].push_back(
        "SELECT rowid, category, price, score() FROM docs WHERE "
        "MATCH(text, '" + name + "term" + std::to_string(rng.Uniform(0, 23)) +
        " common" + std::to_string(rng.Uniform(0, 59)) +
        "') ORDER BY score() DESC LIMIT 10");
  }
  for (size_t i = 0; i < per_kind; ++i) {
    const size_t t = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(served->topics.size()) - 1));
    std::string vec = "[";
    for (size_t d = 0; d < kDim; ++d) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.4f", d ? ", " : "",
                    served->centroids[t][d] + 0.5 * rng.Gaussian());
      vec += buf;
    }
    vec += "]";
    sql[kHybrid].push_back(
        "SELECT rowid, category, price, score() FROM docs WHERE price < " +
        std::to_string(rng.Uniform(20, 90)) + " AND MATCH(text, '" +
        served->topics[t] + "') AND KNN(embedding, " + vec +
        ", 10) ORDER BY score() DESC LIMIT 10");
  }
  for (size_t i = 0; i < per_kind; ++i) {
    const int64_t lo = rng.Uniform(1, std::max<int64_t>(1, orders - 80));
    sql[kRange].push_back(
        "SELECT l_orderkey, l_linenumber, l_partkey, l_quantity, "
        "l_extendedprice, l_discount, l_shipdate FROM lineitem "
        "WHERE l_orderkey >= " + std::to_string(lo) +
        " AND l_orderkey < " + std::to_string(lo + 80) +
        " ORDER BY l_orderkey, l_linenumber");
  }
  std::vector<std::vector<Read>> pools(kWrite);
  for (int kind = 0; kind < kWrite; ++kind) {
    for (const std::string& s : sql[kind]) {
      Result<QueryResult> result = served->db()->Execute(s);
      if (!result.ok()) return result.status();
      pools[kind].push_back(
          Read{Body(s), QueryHandler::SerializeResultJson(*result)});
    }
  }
  return pools;
}

/// Reads one counter from a Prometheus exposition; 0 when absent.
double PromValue(const std::string& text, const std::string& series) {
  const std::string key = "\n" + series + " ";
  const size_t at = ("\n" + text).find(key);
  if (at == std::string::npos) return 0.0;
  return std::atof(text.c_str() + at + key.size() - 1);
}

struct ServerCounters {
  double queries = 0, rejected = 0, timed_out = 0;
};

ServerCounters ScrapeCounters(int port) {
  agora::HttpClient client("127.0.0.1", port);
  Result<agora::HttpClientResponse> r = client.Get("/metrics");
  ServerCounters c;
  if (!r.ok() || r->status != 200) return c;
  c.queries = PromValue(r->body, "agora_server_requests_total{op=\"query\"}");
  c.rejected = PromValue(r->body, "agora_server_queries_rejected_total");
  c.timed_out = PromValue(r->body, "agora_server_queries_timed_out_total");
  return c;
}

/// What the client knows across both passes: its request stream and the
/// value each acknowledged write left under each side-table key.
struct ClientState {
  agora::Rng rng{0};
  std::map<int64_t, int64_t> rows;  // key -> value, keys 0, 1, 2, ...
};

/// The client's results for one pass.
struct PassLog {
  std::vector<double> ms[kNumKinds];  // successful round trips / Handle calls
  int64_t attempted = 0, failed = 0, ok = 0;
  std::vector<std::string> errors, mismatches;
  // Transport-free pass only (reads): per-request decomposition.
  std::vector<double> wait_other_us, response_bytes;
  HostSpeed speed;  // Handle pass only
  int64_t probe_ns = 0;
  ExecTotals totals;
  SpanLog spans;
};

/// A drawn request: body, expected bytes, and the write it makes.
struct Draw {
  Kind kind = kPoint;
  const Read* read = nullptr;
  std::string body;
  int64_t key = 0, value = 0;
  bool insert = false;
};

struct Shared {
  const std::vector<std::vector<Read>>* pools;
  std::string insert_body, update_body;  // expected write responses
};

Draw DrawRequest(ClientState* state, const Shared& shared) {
  Draw d;
  d.kind = state->rng.Bernoulli(kWriteShare)
               ? kWrite
               : static_cast<Kind>(state->rng.Uniform(0, kWrite - 1));
  if (d.kind != kWrite) {
    const std::vector<Read>& pool = (*shared.pools)[d.kind];
    d.read = &pool[static_cast<size_t>(
        state->rng.Uniform(0, static_cast<int64_t>(pool.size()) - 1))];
    d.body = d.read->body;
    return d;
  }
  const int64_t keys = static_cast<int64_t>(state->rows.size());
  d.insert = static_cast<size_t>(keys) < kSideKeys &&
             (keys == 0 || state->rng.Bernoulli(0.5));
  if (d.insert) {
    d.key = keys;
    d.value = state->rng.Uniform(0, 999);
    d.body = Body("INSERT INTO bench_side VALUES (" + std::to_string(d.key) +
                  ", " + std::to_string(d.value) + ", 'w')");
  } else {
    d.key = state->rng.Uniform(0, keys - 1);
    d.value = state->rng.Uniform(1, 9);  // the increment
    d.body = Body("UPDATE bench_side SET v = v + " + std::to_string(d.value) +
                  " WHERE k = " + std::to_string(d.key));
  }
  return d;
}

/// Checks one response; applies an acknowledged write to the model.
void Settle(const Draw& d, int status, const std::string& body,
            const std::string& error, double ms, ClientState* state,
            const Shared& shared, PassLog* log) {
  ++log->attempted;
  if (status != 200) {
    ++log->failed;
    if (log->errors.size() < 5) {
      log->errors.push_back(std::string(kKindNames[d.kind]) + ": " +
                            (error.empty() ? "HTTP " + std::to_string(status)
                                           : error));
    }
    return;
  }
  const std::string& expected =
      d.kind != kWrite ? d.read->expected
                       : (d.insert ? shared.insert_body : shared.update_body);
  if (body != expected) {
    ++log->failed;
    if (log->mismatches.size() < 5) {
      log->mismatches.push_back(std::string(kKindNames[d.kind]) +
                                " response differs from embedded execution");
    }
    return;
  }
  ++log->ok;
  log->ms[d.kind].push_back(ms);
  if (d.kind == kWrite) {
    if (d.insert) {
      state->rows[d.key] = d.value;
    } else {
      state->rows[d.key] += d.value;
    }
  }
}

/// Client-timed HTTP round trips on one keep-alive connection.
void HttpPass(int port, int64_t deadline, ClientState* state,
              const Shared& shared, PassLog* log) {
  agora::HttpClient http("127.0.0.1", port);
  for (int64_t id = 0; NowNs() < deadline; ++id) {
    const Draw d = DrawRequest(state, shared);
    const int32_t span = log->spans.Begin("server.round_trip", id);
    Result<agora::HttpClientResponse> r = http.Post("/query", d.body);
    log->spans.End(span);
    Settle(d, r.ok() ? r->status : 0, r.ok() ? r->body : "",
           r.ok() ? "" : r.status().ToString(),
           NsToMs(log->spans.DurationNs(span)), state, shared, log);
  }
}

/// Transport-free pass: Handle() on the server's own handler. Traced,
/// each read is then replayed part by part on the same thread, so no
/// replayed plan overlaps a write (the embedded engine's contract).
void HandlePass(agora::Database* db, QueryHandler* handler, int64_t deadline,
                bool trace, ClientState* state, const Shared& shared,
                PassLog* log) {
  SpanLog& spans = log->spans;
  for (int64_t id = 0; NowNs() < deadline; ++id) {
    if (id % 256 == 0) log->probe_ns += log->speed.Sample();
    const Draw d = DrawRequest(state, shared);
    agora::HttpRequest request;
    request.method = "POST";
    request.target = "/query";
    request.version = "HTTP/1.1";
    request.body = d.body;
    const int64_t t0 = NowNs();
    const int32_t handle = trace ? spans.Begin("server.handle", id) : -1;
    const agora::HttpResponse response = handler->Handle(request);
    if (trace) spans.End(handle);
    const int64_t handle_ns = NowNs() - t0;
    Settle(d, response.status, response.body, "", NsToMs(handle_ns), state,
           shared, log);
    if (!trace) continue;
    if (d.kind == kWrite || response.status != 200) continue;

    const int32_t replay = spans.Begin("server.replay", id);
    int32_t span = spans.Begin("server.json_decode", id, replay);
    Result<agora::JsonValue> doc = agora::ParseJson(d.body);
    spans.End(span);
    const agora::JsonValue* sql = doc.ok() ? doc->Find("sql") : nullptr;
    if (sql == nullptr || !sql->is_string()) {
      spans.End(replay);
      log->mismatches.push_back("replay could not decode its own body");
      continue;
    }
    const int32_t span_statement = spans.Begin("engine.statement", id, replay);
    Result<QueryResult> result =
        TracedSelect(db, sql->string_value, &spans, id, span_statement);
    spans.End(span_statement);
    if (!result.ok()) {
      spans.End(replay);
      log->mismatches.push_back("replay failed where Handle succeeded: " +
                                result.status().ToString());
      continue;
    }
    span = spans.Begin("server.serialize", id, replay);
    const std::string json = QueryHandler::SerializeResultJson(*result);
    spans.End(span);
    spans.End(replay);
    if (json != d.read->expected && log->mismatches.size() < 5) {
      log->mismatches.push_back("replayed " + std::string(kKindNames[d.kind]) +
                                " differs from embedded execution");
    }
    log->totals.Add(*result);
    log->response_bytes.push_back(static_cast<double>(json.size()));
    // Handle time the replayed parts do not explain: admission, the
    // engine lock, and glue. The parts are the replay's direct children
    // minus the statement wrapper, plus the statement's layer spans.
    int64_t parts_ns = 0;
    for (size_t i = static_cast<size_t>(replay) + 1; i < spans.spans().size();
         ++i) {
      const Span& s = spans.spans()[i];
      if (s.parent == replay || s.parent == span_statement) {
        parts_ns += s.end_ns - s.start_ns;
      }
    }
    parts_ns -= spans.DurationNs(span_statement);
    log->wait_other_us.push_back(NsToUs(handle_ns - parts_ns));
  }
}

/// Folds a pass log into the report's counts.
void Account(const PassLog& log, Report* report) {
  report->Attempts(log.attempted, log.failed, log.errors);
  for (const std::string& m : log.mismatches) report->Mismatch(m);
}

/// End-to-end metrics of one pass lasting `wall_s`, timings at the
/// reference host speed.
void EndToEnd(const PassLog& log, double wall_s, Report* report) {
  const double scale = log.speed.TimeScale();
  report->AdjustedMetric(
      "qps", static_cast<double>(log.ok) / (wall_s - log.probe_ns / 1e9),
      1.0 / scale, "1/s", static_cast<size_t>(log.ok));
  std::vector<double> reads, medians;
  for (int k = 0; k < kWrite; ++k) {
    const std::vector<double>& ms = log.ms[k];
    if (!ms.empty()) medians.push_back(Median(ms));
    report->InfoNumber(std::string("op_ms.") + kKindNames[k],
                       ms.empty() ? 0.0 : Median(ms));
    reads.insert(reads.end(), ms.begin(), ms.end());
  }
  const Summary r = Summarize(reads);
  report->AdjustedMetric("latency_p50_ms", r.median, scale, "ms", r.n);
  report->AdjustedMetric("latency_p99_ms", r.tail, scale, "ms", r.n);
  report->InfoNumber("latency_p99_ms.percentile", r.tail_pct);
  report->AdjustedMetric("geomean_query_ms", GeoMean(medians), scale, "ms",
                         medians.size());
  const Summary w = Summarize(log.ms[kWrite]);
  report->AdjustedMetric("write_latency_p50_ms", w.median, scale, "ms", w.n);
  report->AdjustedMetric("write_latency_p99_ms", w.tail, scale, "ms", w.n);
  report->InfoNumber("write_latency_p99_ms.percentile", w.tail_pct);
}

/// The side table must hold exactly the acknowledged writes, after the
/// sentinel row (key -1, value 1) the reference writes left.
void CheckSideTable(agora::Database* db, std::map<int64_t, int64_t> model,
                    Report* report) {
  model[-1] = 1;
  Result<QueryResult> rows =
      db->Execute("SELECT k, v, note FROM bench_side ORDER BY k");
  if (!rows.ok()) {
    report->Mismatch("bench_side read failed: " + rows.status().ToString());
    return;
  }
  if (rows->num_rows() != model.size()) {
    report->Mismatch("bench_side holds " + std::to_string(rows->num_rows()) +
                     " rows, " + std::to_string(model.size()) +
                     " were acknowledged");
    return;
  }
  size_t r = 0;
  for (const auto& [key, value] : model) {
    const std::string note = key < 0 ? "sentinel" : "w";
    if (rows->Get(r, 0).int64_value() != key ||
        rows->Get(r, 1).int64_value() != value ||
        rows->Get(r, 2).string_value() != note) {
      report->Mismatch("bench_side key " + std::to_string(key) +
                       " differs from the acknowledged writes");
      return;
    }
    ++r;
  }
}

}  // namespace

int RunServe(const Options& options, Report* report) {
  const double sf = options.tiny ? 0.01 : 0.1;
  const size_t docs = options.tiny ? 2000 : 20000;

  std::unique_ptr<Served> served;
  std::vector<double> setup_s;
  HostSpeed setup_speed;  // sampled around every repetition
  for (int rep = 0; rep < kSetupReps; ++rep) {
    served.reset();
    setup_speed.Sample();
    const int64_t start = NowNs();
    Result<std::unique_ptr<Served>> built = BuildServed(options, sf, docs);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 2;
    }
    served = std::move(built).value();
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  setup_speed.Sample();
  agora::Database* db = served->db();
  const int port = served->server->port();

  // Reference answers from embedded Execute + SerializeResultJson.
  const int64_t reference_start = NowNs();
  Result<std::vector<std::vector<Read>>> made =
      MakeReadPools(served.get(), options.seed, sf, options.tiny);
  if (!made.ok()) {
    std::fprintf(stderr, "reference read failed: %s\n",
                 made.status().ToString().c_str());
    return 2;
  }
  const std::vector<std::vector<Read>> pools = std::move(made).value();
  double reference_bytes = 0.0;
  for (const std::vector<Read>& pool : pools) {
    for (const Read& read : pool) reference_bytes += read.expected.size();
  }
  report->InfoNumber("reference_s",
                     static_cast<double>(NowNs() - reference_start) / 1e9);
  report->InfoNumber("reference_bytes", reference_bytes);
  Shared shared{&pools, "", ""};
  {
    Result<QueryResult> ins =
        db->Execute("INSERT INTO bench_side VALUES (-1, 0, 'sentinel')");
    Result<QueryResult> upd =
        db->Execute("UPDATE bench_side SET v = v + 1 WHERE k = -1");
    if (!ins.ok() || !upd.ok()) {
      std::fprintf(stderr, "side-table reference writes failed\n");
      return 2;
    }
    shared.insert_body = QueryHandler::SerializeResultJson(*ins);
    shared.update_body = QueryHandler::SerializeResultJson(*upd);
  }
  std::vector<std::vector<Read>> corrupted;
  if (options.corrupt_reference) {
    corrupted = pools;
    for (Read& read : corrupted[kPoint]) {
      read.expected[read.expected.size() / 2] ^= 0x01;
    }
    shared.pools = &corrupted;
  }
  report->InfoNumber("scale_factor", sf);
  report->InfoNumber("hybrid_docs", static_cast<double>(docs));
  report->InfoNumber("clients", 1);
  report->InfoNumber("workers", kWorkers);
  report->InfoNumber("pool_threads", kPoolThreads);
  report->InfoNumber("budget_bytes", 0.0);

  ClientState state;
  state.rng = agora::Rng(options.seed * 0x9E3779B97F4A7C15ULL + 101);

  // Warm-up: reads only, untimed and uncounted; answers still checked.
  const int64_t warm_until =
      NowNs() + static_cast<int64_t>(options.warmup_seconds * 1e9);
  {
    agora::HttpClient http("127.0.0.1", port);
    for (size_t i = 0; i < kWrite || NowNs() < warm_until; ++i) {
      const std::vector<Read>& pool = (*shared.pools)[i % kWrite];
      const Read& read = pool[i % pool.size()];
      Result<agora::HttpClientResponse> r = http.Post("/query", read.body);
      if (r.ok() && r->status == 200 && r->body != read.expected) {
        report->Mismatch("warm-up response differs");
        break;
      }
    }
  }

  QueryHandler* handler = &served->server->handler();
  const double cpu_start = ProcessCpuSeconds();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(options.seconds * 1e9);

  // Traced runs give the first half of their time to the HTTP pass.
  PassLog http_log;
  ServerCounters before, after;
  if (options.trace) {
    before = ScrapeCounters(port);
    const int64_t http_deadline =
        start + static_cast<int64_t>(options.seconds / 2 * 1e9);
    HttpPass(port, http_deadline, &state, shared, &http_log);
    after = ScrapeCounters(port);
    Account(http_log, report);
  }

  // The measured door: requests through the server's own handler, with
  // no socket between client and server (see BENCHMARK.md, Steadiness).
  const int64_t handle_start = NowNs();
  PassLog handle_log;
  HandlePass(db, handler, deadline, options.trace, &state, shared,
             &handle_log);
  const double handle_wall_s =
      static_cast<double>(NowNs() - handle_start) / 1e9;
  Account(handle_log, report);
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
  const double cpu_s = ProcessCpuSeconds() - cpu_start;

  CheckSideTable(db, state.rows, report);

  report->AdjustedMetric("setup_s", Median(setup_s), setup_speed.TimeScale(),
                         "s", setup_s.size());
  EndToEnd(handle_log, handle_wall_s, report);
  report->Metric("failed_ratio",
                 static_cast<double>(report->failed()) /
                     static_cast<double>(
                         std::max<int64_t>(1, report->attempted())),
                 "ratio", static_cast<size_t>(report->attempted()));
  report->Metric("rss_peak_mb", PeakRssMb(), "MB", 1);
  report->InfoNumber("side_table_rows",
                     static_cast<double>(state.rows.size() + 1));
  report->InfoNumber("wall_s", wall_s);
  report->InfoNumber("host_probe_us",
                     kProbeReferenceUs / handle_log.speed.TimeScale());
  report->InfoNumber("host_probe_samples",
                     static_cast<double>(handle_log.speed.probe_us.size()));

  if (!options.trace) return 0;

  // Per-layer metrics. Engine counters and replays come from the Handle
  // pass only; the HTTP pass contributes its round-trip spans.
  const std::vector<const SpanLog*> logs = {&http_log.spans,
                                            &handle_log.spans};
  const std::vector<double>& bytes = handle_log.response_bytes;
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
  const double statement_us = spans.SumUs("engine.statement");
  report->Metric("engine.front_end_share",
                 statement_us > 0 ? front_us / statement_us : 0.0, "ratio", n);
  double handle_read_us = 0.0;
  for (int k = 0; k < kWrite; ++k) {
    for (double ms : handle_log.ms[k]) handle_read_us += ms * 1e3;
  }
  const double parts_us = spans.SumUs("server.json_decode") + front_us +
                          spans.SumUs("exec.execute_plan") +
                          spans.SumUs("server.serialize");
  report->Metric("trace.parts_share",
                 handle_read_us > 0 ? parts_us / handle_read_us : 0.0, "ratio",
                 n);
  report->Metric("exec.cpu_utilization",
                 cpu_s / (wall_s * kPoolThreads),
                 "ratio", 1);
  report->ExecMetrics(handle_log.totals);

  // Means, not medians: transport = round trip - handle then holds by
  // linearity over the same request mix.
  const double round_trip = spans.MeanUs("server.round_trip");
  const double handle = spans.MeanUs("server.handle");
  report->Metric("server.round_trip_us", round_trip, "us",
                 spans.Count("server.round_trip"));
  report->Metric("server.handle_us", handle, "us",
                 spans.Count("server.handle"));
  report->Metric("server.transport_us", round_trip - handle, "us",
                 spans.Count("server.handle"));
  report->Metric("server.json_decode_us", spans.MedianUs("server.json_decode"),
                 "us", spans.Count("server.json_decode"));
  report->Metric("server.serialize_us", spans.MedianUs("server.serialize"),
                 "us", spans.Count("server.serialize"));
  double bytes_sum = 0.0;
  for (double b : bytes) bytes_sum += b;
  report->Metric("server.response_bytes",
                 bytes.empty() ? 0.0 : bytes_sum / static_cast<double>(bytes.size()),
                 "bytes", bytes.size());
  report->Metric("server.wait_other_us", Median(handle_log.wait_other_us),
                 "us", handle_log.wait_other_us.size());
  for (int k = 0; k < kNumKinds; ++k) {
    const std::vector<double>& ms = http_log.ms[k];
    report->Metric(std::string("server.op.") + kKindNames[k] +
                       ".round_trip_us",
                   ms.empty() ? 0.0 : Median(ms) * 1e3, "us", ms.size());
  }
  const double requests = std::max(1.0, after.queries - before.queries);
  report->Metric("server.rejected_ratio",
                 (after.rejected - before.rejected) / requests, "ratio",
                 static_cast<size_t>(requests));
  report->Metric("server.timed_out",
                 (after.timed_out - before.timed_out) / requests, "count",
                 static_cast<size_t>(requests));
  report->FillUnexercisedLayers();
  if (!options.spans_path.empty() && !WriteSpans(options.spans_path, logs)) {
    std::fprintf(stderr, "cannot write %s\n", options.spans_path.c_str());
  }
  return 0;
}

}  // namespace agorabench
