// SQL-path hybrid search: MATCH()/KNN()/score() queries through the
// declarative pipeline (parser -> binder -> optimizer -> executor) must
// return byte-identical top-k (ids, scores, tie-break) to the
// HybridCollection::Search facade at every strategy, fusion method and
// thread count.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "engine/database.h"
#include "hybrid/collection.h"

namespace agora {
namespace {

/// Prints a float vector as a SQL vector literal with enough digits
/// (FLT_DECIMAL_DIG) that parse-as-double + cast-to-float round-trips the
/// exact floats the facade path uses.
std::string VecLiteral(const Vecf& v) {
  std::string out = "[";
  char buf[64];
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(v[i]));
    out += buf;
  }
  return out + "]";
}

class HybridSqlTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new SyntheticHybridData(
        MakeSyntheticHybridData(/*n=*/5000, /*dim=*/16, /*topics=*/4));
    IvfOptions ivf;
    ivf.nlist = 32;
    ivf.nprobe = 8;
    collection_ = new HybridCollection(data_->attr_schema, 16, ivf);
    for (const HybridDoc& doc : data_->docs) {
      ASSERT_TRUE(collection_->Add(doc).ok());
    }
    ASSERT_TRUE(collection_->BuildIndexes().ok());
  }
  static void TearDownTestSuite() {
    delete collection_;
    delete data_;
    collection_ = nullptr;
    data_ = nullptr;
  }

  void TearDown() override {
    Database& db = collection_->database();
    db.optimizer().mutable_options().hybrid_force_strategy =
        HybridStrategy::kAuto;
    db.set_execution_threads(0);
  }

  static SyntheticHybridData* data_;
  static HybridCollection* collection_;
};

SyntheticHybridData* HybridSqlTest::data_ = nullptr;
HybridCollection* HybridSqlTest::collection_ = nullptr;

TEST_F(HybridSqlTest, AcceptanceShapeParsesPlansAndExecutes) {
  // The issue's acceptance query: attribute filter + MATCH + KNN with a
  // score() projection and ORDER BY score() DESC LIMIT k.
  Database& db = collection_->database();
  std::string sql =
      "SELECT rowid, category, price, score() FROM docs "
      "WHERE price < 50 AND MATCH(text, 'astronomy') "
      "AND KNN(embedding, " + VecLiteral(data_->topic_centroids[0]) +
      ", 10) ORDER BY score() DESC LIMIT 10";
  auto result = db.Execute(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 10u);
  double prev = result->Get(0, 3).double_value();
  for (size_t r = 0; r < result->num_rows(); ++r) {
    EXPECT_LT(result->Get(r, 2).double_value(), 50.0);
    double score = result->Get(r, 3).double_value();
    EXPECT_LE(score, prev) << "rank " << r;
    prev = score;
  }
}

TEST_F(HybridSqlTest, SqlMatchesFacadeAcrossStrategiesFusionsAndThreads) {
  Database& db = collection_->database();
  const HybridStrategy strategies[] = {HybridStrategy::kAuto,
                                       HybridStrategy::kPreFilter,
                                       HybridStrategy::kPostFilter};
  const ScoreFusion fusions[] = {ScoreFusion::kWeightedSum,
                                 ScoreFusion::kRrf};
  const int thread_counts[] = {1, 8};
  for (HybridStrategy strategy : strategies) {
    for (ScoreFusion fusion : fusions) {
      // Forcing through the optimizer covers both paths identically (the
      // strategy pass overrides whatever the statement requested).
      db.optimizer().mutable_options().hybrid_force_strategy = strategy;

      HybridQuery q;
      q.keywords = data_->topic_names[0];
      q.embedding = data_->topic_centroids[0];
      q.filter_sql = "price < 60.0";
      q.k = 10;
      q.fusion = fusion;
      auto facade = collection_->Search(q);
      ASSERT_TRUE(facade.ok()) << facade.status().ToString();

      const char* score_expr =
          fusion == ScoreFusion::kRrf ? "score('rrf')" : "score()";
      std::string sql = std::string("SELECT rowid, ") + score_expr +
                        ", keyword_score, vector_score FROM docs "
                        "WHERE price < 60.0 AND MATCH(text, 'astronomy') "
                        "AND KNN(embedding, " +
                        VecLiteral(data_->topic_centroids[0]) + ", 10)";
      for (int threads : thread_counts) {
        db.set_execution_threads(threads);
        auto result = db.Execute(sql);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_EQ(result->num_rows(), facade->size())
            << "strategy=" << static_cast<int>(strategy)
            << " fusion=" << static_cast<int>(fusion)
            << " threads=" << threads;
        for (size_t r = 0; r < facade->size(); ++r) {
          const ScoredDoc& doc = (*facade)[r];
          EXPECT_EQ(result->Get(r, 0).int64_value(), doc.id)
              << "rank " << r << " threads=" << threads;
          // Byte-identical: the SQL path must run the exact same probes
          // and fusion arithmetic, so EXPECT_EQ (not NEAR) on doubles.
          EXPECT_EQ(result->Get(r, 1).double_value(), doc.score);
          EXPECT_EQ(result->Get(r, 2).double_value(), doc.keyword_score);
          EXPECT_EQ(result->Get(r, 3).double_value(), doc.vector_score);
        }
      }
    }
  }
}

TEST_F(HybridSqlTest, KeywordOnlySqlMatchesFacade) {
  Database& db = collection_->database();
  HybridQuery q;
  q.keywords = data_->topic_names[1];
  q.k = 10;
  auto facade = collection_->Search(q);
  ASSERT_TRUE(facade.ok());
  auto result = db.Execute(
      "SELECT rowid, score(), keyword_score FROM docs "
      "WHERE MATCH(text, 'cooking') LIMIT 10");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), facade->size());
  for (size_t r = 0; r < facade->size(); ++r) {
    EXPECT_EQ(result->Get(r, 0).int64_value(), (*facade)[r].id);
    EXPECT_EQ(result->Get(r, 1).double_value(), (*facade)[r].score);
    EXPECT_EQ(result->Get(r, 2).double_value(), (*facade)[r].keyword_score);
  }
}

TEST_F(HybridSqlTest, VectorOnlySqlMatchesFacade) {
  Database& db = collection_->database();
  HybridQuery q;
  q.embedding = data_->topic_centroids[2];
  q.k = 10;
  auto facade = collection_->Search(q);
  ASSERT_TRUE(facade.ok());
  auto result = db.Execute(
      "SELECT rowid, score(), vector_score FROM docs WHERE KNN(embedding, " +
      VecLiteral(data_->topic_centroids[2]) + ", 10)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), facade->size());
  for (size_t r = 0; r < facade->size(); ++r) {
    EXPECT_EQ(result->Get(r, 0).int64_value(), (*facade)[r].id);
    EXPECT_EQ(result->Get(r, 1).double_value(), (*facade)[r].score);
    EXPECT_EQ(result->Get(r, 2).double_value(), (*facade)[r].vector_score);
  }
}

TEST_F(HybridSqlTest, OrderByDistanceIdiomExecutes) {
  // distance(col, [vec]) alone establishes the vector component.
  Database& db = collection_->database();
  auto result = db.Execute(
      "SELECT rowid, distance(embedding, " +
      VecLiteral(data_->topic_centroids[3]) +
      ") FROM docs ORDER BY distance(embedding, " +
      VecLiteral(data_->topic_centroids[3]) + ") ASC LIMIT 5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 5u);
  double prev = result->Get(0, 1).double_value();
  for (size_t r = 1; r < result->num_rows(); ++r) {
    double d = result->Get(r, 1).double_value();
    EXPECT_GE(d, prev) << "rank " << r;
    prev = d;
  }
}

TEST_F(HybridSqlTest, ExplainShowsStrategySelectivityAndIndex) {
  Database& db = collection_->database();
  std::string vec = VecLiteral(data_->topic_centroids[0]);
  // Selective filter: cost model must pick prefilter + exact flat index.
  auto pre = db.Explain(
      "SELECT rowid, score() FROM docs "
      "WHERE rating = 5 AND price < 5 AND MATCH(text, 'astronomy') "
      "AND KNN(embedding, " + vec + ", 10)");
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();
  EXPECT_NE(pre->find("ScoreFusion"), std::string::npos) << *pre;
  EXPECT_NE(pre->find("strategy=prefilter"), std::string::npos) << *pre;
  EXPECT_NE(pre->find("sel="), std::string::npos) << *pre;
  EXPECT_NE(pre->find("cost[pre="), std::string::npos) << *pre;
  EXPECT_NE(pre->find("index=flat"), std::string::npos) << *pre;

  // Loose filter: postfilter + the IVF ANN index.
  auto post = db.Explain(
      "SELECT rowid, score() FROM docs "
      "WHERE price < 90 AND MATCH(text, 'astronomy') "
      "AND KNN(embedding, " + vec + ", 10)");
  ASSERT_TRUE(post.ok()) << post.status().ToString();
  EXPECT_NE(post->find("strategy=postfilter"), std::string::npos) << *post;
  EXPECT_NE(post->find("index=ivf[nprobe=8/32]"), std::string::npos)
      << *post;
}

TEST_F(HybridSqlTest, ExplainAnalyzeReportsHybridCounters) {
  Database& db = collection_->database();
  auto result = db.Execute(
      "EXPLAIN ANALYZE SELECT rowid, score() FROM docs "
      "WHERE rating = 5 AND price < 5 AND MATCH(text, 'astronomy') "
      "AND KNN(embedding, " + VecLiteral(data_->topic_centroids[0]) +
      ", 10)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_columns(), 1u);
  std::string text;
  for (size_t r = 0; r < result->num_rows(); ++r) {
    text += result->Get(r, 0).string_value();
    text += '\n';
  }
  EXPECT_NE(text.find("[analyze]"), std::string::npos) << text;
  // Prefilter evaluates the predicate on every row; the hybrid counters
  // must flow through the common ExecStats rendering.
  EXPECT_NE(text.find("hybrid_filter_rows=5,000"), std::string::npos)
      << text;
  EXPECT_NE(text.find("vector_distances="), std::string::npos) << text;
  EXPECT_NE(text.find("fusion_candidates="), std::string::npos) << text;
}

TEST_F(HybridSqlTest, TwoMatchPredicatesRejected) {
  auto result = collection_->database().Execute(
      "SELECT rowid FROM docs WHERE MATCH(text, 'a') AND MATCH(text, 'b')");
  EXPECT_EQ(result.status().code(), StatusCode::kBindError);
}

TEST_F(HybridSqlTest, DimensionMismatchRejected) {
  auto result = collection_->database().Execute(
      "SELECT rowid FROM docs WHERE KNN(embedding, [1.0, 2.0], 5)");
  EXPECT_EQ(result.status().code(), StatusCode::kBindError);
}

TEST_F(HybridSqlTest, ScoreOutsideHybridQueryRejected) {
  auto result = collection_->database().Execute(
      "SELECT score() FROM docs WHERE price < 10");
  EXPECT_EQ(result.status().code(), StatusCode::kBindError);
}

TEST_F(HybridSqlTest, MatchOnTableWithoutIndexesRejected) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE plain (a BIGINT)").ok());
  auto result =
      db.Execute("SELECT a FROM plain WHERE MATCH(a, 'nope')");
  EXPECT_EQ(result.status().code(), StatusCode::kBindError);
}

}  // namespace
}  // namespace agora
