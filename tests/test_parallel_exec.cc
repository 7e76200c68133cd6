// Parallel-vs-serial equivalence for morsel-driven execution: the same
// query must return byte-identical results — including floating-point
// aggregate rounding and ExecStats counters — at every worker count.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/thread_pool.h"
#include "engine/database.h"
#include "exec/aggregate.h"
#include "exec/filter_project.h"
#include "exec/parallel.h"
#include "exec/scan.h"
#include "exec/sort_limit.h"
#include "expr/expr.h"
#include "storage/table.h"
#include "tpch/tpch.h"

namespace agora {
namespace {

class ParallelExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // The container may expose a single core; force a multi-threaded
    // global pool so parallel scheduling is actually exercised. Must run
    // before the first query lazily constructs ThreadPool::Global().
    setenv("AGORA_THREADS", "4", 0);
    db_ = new Database();
    TpchOptions options;
    options.scale_factor = 0.002;  // ~12k lineitems: above the 8192 floor
    Status s = GenerateTpch(options, &db_->catalog());
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static QueryResult RunAt(int threads, const std::string& sql) {
    db_->set_execution_threads(threads);
    auto result = db_->Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    db_->set_execution_threads(0);
    return result.ok() ? std::move(*result) : QueryResult();
  }

  /// Requires cell-exact equality, with doubles compared bitwise-style
  /// via operator== (no tolerance: the determinism contract is exact).
  static void ExpectIdentical(const QueryResult& a, const QueryResult& b,
                              const std::string& label) {
    ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
    ASSERT_EQ(a.num_columns(), b.num_columns()) << label;
    for (size_t r = 0; r < a.num_rows(); ++r) {
      for (size_t c = 0; c < a.num_columns(); ++c) {
        Value va = a.Get(r, c);
        Value vb = b.Get(r, c);
        ASSERT_EQ(va.is_null(), vb.is_null())
            << label << " (" << r << "," << c << ")";
        if (va.is_null()) continue;
        if (va.type() == TypeId::kDouble) {
          EXPECT_EQ(va.AsDouble(), vb.AsDouble())
              << label << " (" << r << "," << c << ")";
        } else {
          EXPECT_EQ(va.Compare(vb), 0)
              << label << " (" << r << "," << c << "): " << va.ToString()
              << " vs " << vb.ToString();
        }
      }
    }
  }

  // Every counter is part of the determinism contract except the ones
  // that depend on the partition (= worker) count by design.
  static void ExpectStatsIdentical(const ExecStats& a, const ExecStats& b,
                                   const std::string& label) {
    for (const ExecCounter& c : kExecCounters) {
      const std::string name = c.name;
      if (name == "hash_table_slots" || name == "hash_table_probe_steps" ||
          name == "mem_bytes_reserved_peak") {
        continue;
      }
      EXPECT_EQ(a.*c.field, b.*c.field) << label << " " << name;
    }
  }

  static void ExpectThreadInvariant(const std::string& name,
                                    const std::string& sql) {
    QueryResult serial = RunAt(1, sql);
    ASSERT_GT(serial.num_rows(), 0u) << name << " returned nothing";
    for (int threads : {2, 8}) {
      QueryResult parallel = RunAt(threads, sql);
      std::string label = name + " @" + std::to_string(threads) + "t";
      ExpectIdentical(serial, parallel, label);
      ExpectStatsIdentical(serial.stats(), parallel.stats(), label);
    }
  }

  static Database* db_;
};

Database* ParallelExecTest::db_ = nullptr;

TEST_F(ParallelExecTest, Q1AggregateThreadInvariant) {
  ExpectThreadInvariant("Q1", TpchQ1());
}

TEST_F(ParallelExecTest, Q3JoinTopKThreadInvariant) {
  ExpectThreadInvariant("Q3", TpchQ3());
}

TEST_F(ParallelExecTest, Q5SixWayJoinThreadInvariant) {
  ExpectThreadInvariant("Q5", TpchQ5());
}

TEST_F(ParallelExecTest, Q6ScanFilterAggregateThreadInvariant) {
  ExpectThreadInvariant("Q6", TpchQ6());
}

TEST_F(ParallelExecTest, Q10JoinGroupTopKThreadInvariant) {
  ExpectThreadInvariant("Q10", TpchQ10());
}

TEST_F(ParallelExecTest, Q12CaseAggregateThreadInvariant) {
  ExpectThreadInvariant("Q12", TpchQ12());
}

TEST_F(ParallelExecTest, Q14RatioAggregateThreadInvariant) {
  ExpectThreadInvariant("Q14", TpchQ14());
}

TEST_F(ParallelExecTest, PipelineRootScanFilterThreadInvariant) {
  // Whole plan is pipeline-shaped: the root collector itself runs through
  // the morsel path. Output row order must match the serial table order.
  ExpectThreadInvariant(
      "scan-filter",
      "SELECT l_orderkey, l_quantity, l_extendedprice FROM lineitem "
      "WHERE l_quantity < 10");
}

TEST_F(ParallelExecTest, DistinctAggregateThreadInvariant) {
  // DISTINCT aggregates stay on the serial accumulate path (a Gather
  // exchange parallelizes their input); results must still be invariant.
  ExpectThreadInvariant(
      "count-distinct",
      "SELECT COUNT(DISTINCT l_suppkey), COUNT(*) FROM lineitem");
}

TEST_F(ParallelExecTest, OrderByWithoutLimitThreadInvariant) {
  ExpectThreadInvariant(
      "sort",
      "SELECT l_orderkey, l_linenumber FROM lineitem "
      "WHERE l_discount > 0.05 ORDER BY l_orderkey, l_linenumber");
}

TEST_F(ParallelExecTest, ParallelMatchesSerialModeWithinTolerance) {
  // Serial execution is the one-worker run of the same morsel path, so
  // an engine built with one thread returns the parallel engine's exact
  // doubles (tests/test_spill.cc checks this on multi-morsel data).
  DatabaseOptions serial_options;
  serial_options.physical.num_threads = 1;
  Database serial_db(serial_options);
  TpchOptions tpch;
  tpch.scale_factor = 0.002;
  ASSERT_TRUE(GenerateTpch(tpch, &serial_db.catalog()).ok());

  auto serial = serial_db.Execute(TpchQ1());
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  QueryResult parallel = RunAt(8, TpchQ1());
  ASSERT_EQ(serial->num_rows(), parallel.num_rows());
  ASSERT_EQ(serial->num_columns(), parallel.num_columns());
  for (size_t r = 0; r < parallel.num_rows(); ++r) {
    for (size_t c = 0; c < parallel.num_columns(); ++c) {
      Value vs = serial->Get(r, c);
      Value vp = parallel.Get(r, c);
      ASSERT_EQ(vs.is_null(), vp.is_null());
      if (vs.is_null()) continue;
      if (vs.type() == TypeId::kDouble) {
        EXPECT_EQ(vp.AsDouble(), vs.AsDouble());
      } else {
        EXPECT_EQ(vs.Compare(vp), 0);
      }
    }
  }
}

TEST_F(ParallelExecTest, SmallTableStaysEligibleInvariant) {
  // A 25-row table is one morsel, so the morsel path runs it as one
  // inline task at every thread count; guard that routing anyway.
  ExpectThreadInvariant(
      "small-table",
      "SELECT n_regionkey, COUNT(*) FROM nation GROUP BY n_regionkey");
}

// ---------------------------------------------------------------------
// Morsel driver: chunk-boundary checks for every consumer
// ---------------------------------------------------------------------

/// Operators built by hand over a three-morsel table, with a 4-worker
/// context whose query was cancelled (or put over its memory budget)
/// before Open(). Each morsel consumer must stop within one chunk per
/// worker instead of draining the table.
class MorselDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_shared<Table>(
        "t", Schema({{"k", TypeId::kInt64, false},
                     {"v", TypeId::kDouble, false}}));
    Chunk rows(table_->schema());
    for (size_t i = 0; i < 3 * kMorselRows; ++i) {
      rows.column(0).AppendInt64(static_cast<int64_t>(i % 97));
      rows.column(1).AppendDouble(static_cast<double>(i) * 0.5);
    }
    ASSERT_TRUE(table_->AppendChunk(rows).ok());
    context_.pool = ThreadPool::Global();
    context_.num_workers = 4;
    context_.control = &control_;
  }

  /// Scan → Filter(k >= 0), which keeps every row.
  PhysicalOpPtr ScanFilter() {
    auto scan = std::make_unique<PhysicalScan>(
        table_, std::vector<size_t>{}, nullptr,
        std::vector<ColumnRangeConstraint>{}, false, table_->schema(),
        &context_);
    ExprPtr pred = std::make_shared<ComparisonExpr>(
        CompareOp::kGe, KeyRef(),
        std::make_shared<LiteralExpr>(Value::Int64(0)));
    return std::make_unique<PhysicalFilter>(std::move(scan), pred,
                                            &context_);
  }

  static ExprPtr KeyRef() {
    return std::make_shared<ColumnRefExpr>(0, TypeId::kInt64, "k");
  }

  std::unique_ptr<PhysicalHashAggregate> CountByKey() {
    AggregateSpec count;
    count.func = AggFunc::kCountStar;
    count.result_type = TypeId::kInt64;
    count.name = "n";
    return std::make_unique<PhysicalHashAggregate>(
        ScanFilter(), std::vector<ExprPtr>{KeyRef()},
        std::vector<AggregateSpec>{count},
        Schema({{"k", TypeId::kInt64, false}, {"n", TypeId::kInt64, false}}),
        &context_);
  }

  void ExpectStoppedEarly(const Status& status, StatusCode code) {
    EXPECT_EQ(status.code(), code) << status.ToString();
    EXPECT_LE(context_.stats.rows_scanned,
              static_cast<int64_t>(context_.num_workers * kChunkSize));
  }

  std::shared_ptr<Table> table_;
  ExecContext context_;
  QueryControl control_;
};

TEST_F(MorselDriverTest, AggregateAccumulateStopsOnCancel) {
  control_.RequestCancel();
  ExpectStoppedEarly(CountByKey()->Open(), StatusCode::kDeadlineExceeded);
}

TEST_F(MorselDriverTest, GatherBelowDistinctStopsOnCancel) {
  control_.RequestCancel();
  auto gather = std::make_unique<PhysicalGather>(ScanFilter(), &context_);
  PhysicalDistinct distinct(std::move(gather), &context_);
  ExpectStoppedEarly(CollectAll(&distinct).status(),
                     StatusCode::kDeadlineExceeded);
}

TEST_F(MorselDriverTest, AggregateAccumulateStopsOverBudget) {
  context_.memory = std::make_shared<MemoryTracker>("query");
  context_.memory->set_budget(1);
  context_.memory->Consume(2);
  ExpectStoppedEarly(CountByKey()->Open(), StatusCode::kResourceExhausted);
  context_.memory->Release(2);
}

}  // namespace
}  // namespace agora
