// Tests for columnar storage: ColumnVector, Chunk, Table (zone maps,
// indexes, sorted copies), Catalog and CSV import/export.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <sstream>

#include "engine/database.h"
#include "optimizer/stats.h"
#include "storage/catalog.h"
#include "storage/csv.h"
#include "storage/table.h"

namespace agora {
namespace {

TEST(ColumnVectorTest, AppendAndAccessAllTypes) {
  ColumnVector ints(TypeId::kInt64);
  ints.AppendInt64(5);
  ints.AppendNull();
  EXPECT_EQ(ints.size(), 2u);
  EXPECT_EQ(ints.GetInt64(0), 5);
  EXPECT_TRUE(ints.IsNull(1));
  EXPECT_FALSE(ints.AllValid());

  ColumnVector strs(TypeId::kString);
  strs.AppendString("abc");
  EXPECT_EQ(strs.GetString(0), "abc");
  EXPECT_TRUE(strs.AllValid());

  ColumnVector bools(TypeId::kBool);
  bools.AppendBool(true);
  EXPECT_TRUE(bools.GetBool(0));

  ColumnVector dates(TypeId::kDate);
  dates.AppendValue(Value::Date(100));
  EXPECT_EQ(dates.GetValue(0).ToString(), DateToString(100));
}

TEST(ColumnVectorTest, GatherAndSlice) {
  ColumnVector col(TypeId::kInt64);
  for (int i = 0; i < 10; ++i) col.AppendInt64(i * 10);
  ColumnVector gathered = col.Gather({9, 0, 5});
  ASSERT_EQ(gathered.size(), 3u);
  EXPECT_EQ(gathered.GetInt64(0), 90);
  EXPECT_EQ(gathered.GetInt64(1), 0);
  EXPECT_EQ(gathered.GetInt64(2), 50);

  ColumnVector sliced = col.Slice(3, 4);
  ASSERT_EQ(sliced.size(), 4u);
  EXPECT_EQ(sliced.GetInt64(0), 30);
  EXPECT_EQ(sliced.GetInt64(3), 60);
}

TEST(ColumnVectorTest, CompareRowsWithNulls) {
  ColumnVector col(TypeId::kDouble);
  col.AppendNull();
  col.AppendDouble(1.5);
  col.AppendDouble(2.5);
  EXPECT_LT(col.CompareRows(0, col, 1), 0);  // NULL first
  EXPECT_EQ(col.CompareRows(0, col, 0), 0);
  EXPECT_LT(col.CompareRows(1, col, 2), 0);
  EXPECT_GT(col.CompareRows(2, col, 1), 0);
}

TEST(ColumnVectorTest, SetValueMutatesInPlace) {
  ColumnVector col(TypeId::kInt64);
  col.AppendInt64(1);
  col.SetValue(0, Value::Int64(9));
  EXPECT_EQ(col.GetInt64(0), 9);
  col.SetValue(0, Value::Null());
  EXPECT_TRUE(col.IsNull(0));
}

// ---------------------------------------------------------------------
// Column views: Slice() shares the buffer at a row offset. A view must
// read every cell, hash, compare and gather like the copy it replaces,
// account the same bytes, and never write through to the shared buffer.

/// A 3000-row column of `type` whose cells cycle through NULL and edge
/// values: NaN, -0.0 and +0.0 doubles, and empty, inline and heap-sized
/// strings.
ColumnVector MakeEdgeColumn(TypeId type) {
  const Value ints[] = {Value::Int64(7), Value::Null(), Value::Int64(-3),
                        Value::Int64(0), Value::Int64(INT64_MAX)};
  const Value doubles[] = {Value::Double(std::nan("")), Value::Double(-0.0),
                           Value::Null(), Value::Double(0.0),
                           Value::Double(2.5), Value::Double(-1e300)};
  const Value strings[] = {
      Value::String(""), Value::String("MAIL"), Value::Null(),
      Value::String("a string well past the inline buffer"),
      Value::String("exactly15 chars"), Value::String("sixteen chars!!!")};
  ColumnVector col(type);
  for (size_t r = 0; r < 3000; ++r) {
    switch (type) {
      case TypeId::kBool:
        col.AppendValue(r % 3 == 1 ? Value::Null() : Value::Bool(r % 2 == 0));
        break;
      case TypeId::kInt64:
        col.AppendValue(ints[r % 5]);
        break;
      case TypeId::kDate:
        col.AppendValue(r % 4 == 2 ? Value::Null()
                                   : Value::Date(static_cast<int64_t>(r)));
        break;
      case TypeId::kDouble:
        col.AppendValue(doubles[r % 6]);
        break;
      case TypeId::kString:
        col.AppendValue(strings[r % 6]);
        break;
      case TypeId::kInvalid:
        break;
    }
  }
  return col;
}

constexpr TypeId kViewTypes[] = {TypeId::kBool, TypeId::kInt64,
                                 TypeId::kDate, TypeId::kDouble,
                                 TypeId::kString};
// Off every block boundary, so an ignored offset reads the wrong rows.
constexpr size_t kViewBegin = 2048 + 5;
constexpr size_t kViewRows = 700;

/// An owned copy of rows [begin, begin+count) of `col`, built by a gather
/// (exact-capacity arrays, copied strings), like the block copies views
/// replace.
ColumnVector CopyOfRows(const ColumnVector& col, size_t begin,
                        size_t count) {
  std::vector<uint32_t> rows(count);
  std::iota(rows.begin(), rows.end(), static_cast<uint32_t>(begin));
  return col.Gather(rows);
}

void ExpectSameCells(const ColumnVector& got, const ColumnVector& want) {
  ASSERT_EQ(got.type(), want.type());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.IsNull(i), want.IsNull(i)) << "row " << i;
    if (want.IsNull(i)) continue;
    switch (want.type()) {
      case TypeId::kDouble: {
        double a = got.GetDouble(i), b = want.GetDouble(i);
        ASSERT_EQ(std::memcmp(&a, &b, sizeof(a)), 0) << "row " << i;
        break;
      }
      case TypeId::kString:
        ASSERT_EQ(got.GetString(i), want.GetString(i)) << "row " << i;
        break;
      default:
        ASSERT_EQ(got.GetInt64(i), want.GetInt64(i)) << "row " << i;
        break;
    }
  }
}

TEST(ColumnViewTest, ViewReadsLikeTheCopyItReplacesForEveryType) {
  for (TypeId type : kViewTypes) {
    SCOPED_TRACE(TypeIdToString(type));
    ColumnVector col = MakeEdgeColumn(type);
    ColumnVector view = col.Slice(kViewBegin, kViewRows);
    ColumnVector copy = CopyOfRows(col, kViewBegin, kViewRows);
    ASSERT_TRUE(view.is_view());
    ASSERT_TRUE(view.CheckConsistency().ok());
    ASSERT_NO_FATAL_FAILURE(ExpectSameCells(view, copy));
    EXPECT_EQ(view.AllValid(), copy.AllValid());

    // Raw pointers start at the view's first row.
    for (size_t i = 0; i < kViewRows; ++i) {
      ASSERT_EQ(view.validity_data()[i], copy.validity_data()[i]);
      if (copy.IsNull(i)) continue;
      if (type == TypeId::kString) {
        ASSERT_EQ(view.string_data()[i], copy.string_data()[i]);
      } else if (type == TypeId::kDouble) {
        ASSERT_EQ(std::memcmp(&view.double_data()[i], &copy.double_data()[i],
                              sizeof(double)),
                  0);
      } else {
        ASSERT_EQ(view.int64_data()[i], copy.int64_data()[i]);
      }
    }

    // Batch kernels.
    std::vector<uint64_t> hv(kViewRows, 1), hc(kViewRows, 1);
    view.HashBatch(hv.data(), kViewRows, /*combine=*/true,
                   /*normalize_zero=*/true);
    copy.HashBatch(hc.data(), kViewRows, /*combine=*/true,
                   /*normalize_zero=*/true);
    EXPECT_EQ(hv, hc);
    std::vector<uint32_t> rows(kViewRows), mirrored(kViewRows);
    for (size_t i = 0; i < kViewRows; ++i) {
      rows[i] = static_cast<uint32_t>(i);
      mirrored[i] = static_cast<uint32_t>((i * 7) % kViewRows);
    }
    for (bool bitwise : {false, true}) {
      std::vector<uint8_t> ev(kViewRows, 1), ec(kViewRows, 1);
      view.BatchEqualRows(rows.data(), view, mirrored.data(), kViewRows,
                          bitwise, ev.data());
      copy.BatchEqualRows(rows.data(), copy, mirrored.data(), kViewRows,
                          bitwise, ec.data());
      EXPECT_EQ(ev, ec);
    }
    for (size_t i = 0; i < kViewRows; ++i) {
      ASSERT_EQ(view.HashRow(i), copy.HashRow(i)) << "row " << i;
      ASSERT_EQ(view.CompareRows(i, view, mirrored[i]),
                copy.CompareRows(i, copy, mirrored[i]))
          << "row " << i;
    }
    std::vector<uint32_t> pick = {0, 699, UINT32_MAX, 350, 1};
    ColumnVector gv(type), gc(type);
    gv.AppendGatherPadded(view, pick.data(), pick.size());
    gc.AppendGatherPadded(copy, pick.data(), pick.size());
    ASSERT_NO_FATAL_FAILURE(ExpectSameCells(gv, gc));

    // A view of a view composes the offsets.
    ColumnVector inner = view.Slice(13, 100);
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameCells(inner, CopyOfRows(copy, 13, 100)));
  }
}

TEST(ColumnViewTest, ViewAccountsTheBytesOfItsCopy) {
  for (TypeId type : kViewTypes) {
    SCOPED_TRACE(TypeIdToString(type));
    ColumnVector col = MakeEdgeColumn(type);
    ColumnVector view = col.Slice(kViewBegin, kViewRows);
    EXPECT_EQ(view.MemoryBytes(),
              CopyOfRows(col, kViewBegin, kViewRows).MemoryBytes());
    // A whole-vector slice is a plain share and counts the buffer.
    EXPECT_EQ(col.Slice(0, col.size()).MemoryBytes(), col.MemoryBytes());
  }
}

TEST(ColumnViewTest, WritingToAViewCopiesOnlyItsRows) {
  for (TypeId type : kViewTypes) {
    SCOPED_TRACE(TypeIdToString(type));
    ColumnVector col = MakeEdgeColumn(type);
    ColumnVector before = CopyOfRows(col, 0, col.size());
    ColumnVector copy = CopyOfRows(col, kViewBegin, kViewRows);

    // Appending to a view: the view's rows plus the new one.
    ColumnVector appended = col.Slice(kViewBegin, kViewRows);
    appended.AppendNull();
    EXPECT_FALSE(appended.is_view());
    ASSERT_EQ(appended.size(), kViewRows + 1);
    EXPECT_TRUE(appended.IsNull(kViewRows));
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameCells(appended.Slice(0, kViewRows), copy));
    EXPECT_LT(appended.MemoryBytes(), col.MemoryBytes() / 2);

    // A raw mutable pointer (EnsureUnique) on a view.
    ColumnVector written = col.Slice(kViewBegin, kViewRows);
    written.mutable_validity_data()[0] = 0;
    EXPECT_FALSE(written.is_view());
    EXPECT_EQ(written.MemoryBytes(), copy.MemoryBytes());
    EXPECT_TRUE(written.IsNull(0));

    // The buffer the views shared was never written.
    ASSERT_NO_FATAL_FAILURE(ExpectSameCells(col, before));

    // The last owner of the buffer still copies only its rows.
    ColumnVector last = col.Slice(kViewBegin, kViewRows);
    col = ColumnVector();
    last.SetValue(1, Value::Null());
    EXPECT_FALSE(last.is_view());
    EXPECT_EQ(last.size(), kViewRows);
    EXPECT_TRUE(last.IsNull(1));
    EXPECT_EQ(last.MemoryBytes(), copy.MemoryBytes());
  }
}

TEST(ColumnViewTest, HeldViewsKeepTheirBytesAcrossTableWrites) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k BIGINT, v DOUBLE, s VARCHAR)")
                  .ok());
  std::shared_ptr<Table> table = *db.catalog().GetTable("t");
  for (int64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(table
                    ->AppendRow({Value::Int64(k), Value::Double(k * 0.5),
                                 Value::String("row " + std::to_string(k))})
                    .ok());
  }
  Chunk held = table->GetChunk(kViewBegin, kViewRows);
  ASSERT_TRUE(held.column(0).is_view());
  auto result = db.Execute("SELECT k, s FROM t WHERE k >= 2040 AND k < 2100");
  ASSERT_TRUE(result.ok());
  std::string held_before = held.ToString(kViewRows);
  std::string result_before = result->ToString(100);

  for (const char* sql :
       {"INSERT INTO t VALUES (-1, -0.5, 'new')",
        "UPDATE t SET v = v + 1, s = 'changed' WHERE k >= 2000 AND k < 3000",
        "DELETE FROM t WHERE k < 2500"}) {
    ASSERT_TRUE(db.Execute(sql).ok()) << sql;
    EXPECT_EQ(held.ToString(kViewRows), held_before) << sql;
    EXPECT_EQ(result->ToString(100), result_before) << sql;
  }
  auto after = db.Execute("SELECT COUNT(*) FROM t WHERE s = 'changed'");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->Get(0, 0).int64_value(), 500);
}

// ---------------------------------------------------------------------
// Dictionary-encoded strings: table string columns hold codes into a
// shared dictionary; every kernel answers as the flat form does.

/// MakeEdgeColumn(kString) in the dictionary form a table column uses.
ColumnVector MakeDictEdgeColumn() {
  ColumnVector flat = MakeEdgeColumn(TypeId::kString);
  ColumnVector col(TypeId::kString);
  col.EncodeAppends();
  for (size_t r = 0; r < flat.size(); ++r) col.AppendFrom(flat, r);
  return col;
}

/// The rows of `col` as a flat vector (what the string accessors read).
ColumnVector FlatCopy(const ColumnVector& col) {
  ColumnVector out(TypeId::kString);
  for (size_t r = 0; r < col.size(); ++r) {
    if (col.IsNull(r)) {
      out.AppendNull();
    } else {
      out.AppendString(col.GetString(r));
    }
  }
  return out;
}

TEST(DictionaryTest, HashesLikeTheFlatForm) {
  ColumnVector dict = MakeDictEdgeColumn();
  ColumnVector flat = MakeEdgeColumn(TypeId::kString);
  ASSERT_TRUE(dict.is_dictionary());
  ASSERT_FALSE(flat.is_dictionary());
  EXPECT_EQ(dict.dictionary()->size(), 5u);  // five strings and NULL
  ASSERT_NO_FATAL_FAILURE(ExpectSameCells(dict, flat));
  for (const auto& [d, f] :
       {std::pair{dict, flat},
        std::pair{dict.Slice(kViewBegin, kViewRows),
                  flat.Slice(kViewBegin, kViewRows)}}) {
    size_t n = d.size();
    for (bool combine : {false, true}) {
      std::vector<uint64_t> hd(n, 3), hf(n, 3);
      d.HashBatch(hd.data(), n, combine, /*normalize_zero=*/true);
      f.HashBatch(hf.data(), n, combine, /*normalize_zero=*/true);
      EXPECT_EQ(hd, hf);
    }
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(d.HashRow(i), f.HashRow(i)) << "row " << i;
      ASSERT_EQ(d.CompareRows(i, f, (i * 7) % n), f.CompareRows(i, f, (i * 7) % n))
          << "row " << i;
    }
  }
}

TEST(DictionaryTest, BatchEqualRowsAcrossDictionaries) {
  ColumnVector dict = MakeDictEdgeColumn();
  ColumnVector flat = MakeEdgeColumn(TypeId::kString);
  // Another dictionary over the same strings, in another code order.
  ColumnVector other(TypeId::kString);
  other.EncodeAppends();
  for (size_t r = flat.size(); r-- > 0;) other.AppendFrom(flat, r);
  ASSERT_TRUE(other.is_dictionary());
  ASSERT_NE(other.dictionary(), dict.dictionary());
  ColumnVector same = dict.Gather({5, 4, 3, 2, 1, 0, 11, 2999});
  ASSERT_EQ(same.dictionary(), dict.dictionary());

  const size_t n = 600;
  std::vector<uint32_t> rows(n), mirrored(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i] = static_cast<uint32_t>(i);
    mirrored[i] = static_cast<uint32_t>((i * 7 + i / 6) % n);
  }
  std::vector<uint32_t> reversed(n);  // row r of `other` is flat row 2999 - r
  for (size_t i = 0; i < n; ++i) reversed[i] = 2999 - mirrored[i];
  std::vector<uint8_t> want(n, 1);
  flat.BatchEqualRows(rows.data(), flat, mirrored.data(), n, true,
                      want.data());
  ASSERT_GT(std::count(want.begin(), want.end(), 1), 0);
  ASSERT_LT(std::count(want.begin(), want.end(), 1), static_cast<long>(n));

  std::vector<uint8_t> got(n, 1);
  dict.BatchEqualRows(rows.data(), dict, mirrored.data(), n, true,
                      got.data());
  EXPECT_EQ(got, want) << "dict x same dict";
  got.assign(n, 1);
  dict.BatchEqualRows(rows.data(), other, reversed.data(), n, true,
                      got.data());
  EXPECT_EQ(got, want) << "dict x other dict";
  got.assign(n, 1);
  dict.BatchEqualRows(rows.data(), flat, mirrored.data(), n, true,
                      got.data());
  EXPECT_EQ(got, want) << "dict x flat";
  got.assign(n, 1);
  flat.BatchEqualRows(rows.data(), dict, mirrored.data(), n, true,
                      got.data());
  EXPECT_EQ(got, want) << "flat x dict";
}

TEST(DictionaryTest, OuterJoinPaddingGathersNullCodes) {
  ColumnVector dict = MakeDictEdgeColumn();
  ColumnVector view = dict.Slice(kViewBegin, kViewRows);
  std::vector<uint32_t> pick = {0, UINT32_MAX, 699, 2, UINT32_MAX, 3};
  ColumnVector got(TypeId::kString);
  got.AppendGatherPadded(view, pick.data(), pick.size());
  // The gather keeps the codes and the dictionary.
  ASSERT_TRUE(got.is_dictionary());
  EXPECT_EQ(got.dictionary(), dict.dictionary());
  ASSERT_TRUE(got.CheckConsistency().ok());
  ColumnVector want(TypeId::kString);
  want.AppendGatherPadded(FlatCopy(view), pick.data(), pick.size());
  ASSERT_NO_FATAL_FAILURE(ExpectSameCells(got, want));
  EXPECT_TRUE(got.IsNull(1));
  EXPECT_TRUE(got.IsNull(4));
  EXPECT_EQ(got.HashRow(1), FlatCopy(got).HashRow(1));

  // Padding from an empty build side.
  ColumnVector empty(TypeId::kString);
  empty.EncodeAppends();
  std::vector<uint32_t> pads(3, UINT32_MAX);
  ColumnVector padded(TypeId::kString);
  padded.AppendGatherPadded(empty.Slice(0, 0), pads.data(), pads.size());
  ASSERT_EQ(padded.size(), 3u);
  EXPECT_TRUE(padded.IsNull(0) && padded.IsNull(2));

  // A gather from a flat vector into a dictionary vector decodes it.
  ColumnVector flat = MakeEdgeColumn(TypeId::kString);
  got.AppendGatherPadded(flat, pick.data(), pick.size());
  EXPECT_FALSE(got.is_dictionary());
  want.AppendGatherPadded(flat, pick.data(), pick.size());
  ASSERT_NO_FATAL_FAILURE(ExpectSameCells(got, want));
}

TEST(DictionaryTest, ViewAccountsTheBytesOfItsCopy) {
  ColumnVector dict = MakeDictEdgeColumn();
  ColumnVector view = dict.Slice(kViewBegin, kViewRows);
  ColumnVector copy = CopyOfRows(dict, kViewBegin, kViewRows);
  ASSERT_TRUE(view.is_view());
  ASSERT_TRUE(copy.is_dictionary());
  EXPECT_EQ(view.MemoryBytes(), copy.MemoryBytes());
  // Validity plus an 8-byte code per row.
  EXPECT_EQ(view.MemoryBytes(), kViewRows * (1 + sizeof(int64_t)));
  EXPECT_LT(view.MemoryBytes(),
            MakeEdgeColumn(TypeId::kString)
                .Slice(kViewBegin, kViewRows)
                .MemoryBytes());
}

std::string Answers(Database* db) {
  std::string out;
  for (const char* sql :
       {"SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY s",
        "SELECT COUNT(*) FROM t WHERE s = 'v7'",
        "SELECT COUNT(*) FROM t WHERE s IN ('v1', 'v2000', 'zz') OR s LIKE "
        "'%99'",
        "SELECT MIN(s), MAX(s), COUNT(DISTINCT s) FROM t",
        "SELECT a.k, b.s FROM t a JOIN t b ON a.s = b.s WHERE a.k < 3 "
        "ORDER BY a.k, b.k"}) {
    auto result = db->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    if (result.ok()) out += result->ToString(1 << 20);
  }
  return out;
}

TEST(DictionaryTest, PassingTheCapDecodesOnceWithUnchangedAnswers) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k BIGINT, s VARCHAR)").ok());
  std::shared_ptr<Table> table = *db.catalog().GetTable("t");
  // kDictCap distinct values with NULLs between them, then repeats.
  size_t next = 0;
  int64_t v7_rows = 0;
  for (int64_t k = 0; k < static_cast<int64_t>(kDictCap) + 500; ++k) {
    Value s = Value::Null();
    if (k % 97 != 5) {
      size_t v = next++ % kDictCap;
      v7_rows += v == 7 ? 1 : 0;
      s = Value::String("v" + std::to_string(v));
    }
    ASSERT_TRUE(table->AppendRow({Value::Int64(k), s}).ok());
  }
  ASSERT_TRUE(table->column(1).is_dictionary());
  EXPECT_EQ(table->column(1).dictionary()->size(), kDictCap);
  std::string at_cap = Answers(&db);

  // The 2049th distinct value decodes the column once; it stays flat.
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (-1, 'one too many')").ok());
  EXPECT_FALSE(table->column(1).is_dictionary());
  EXPECT_FALSE(table->column(1).encodes_appends());
  ASSERT_TRUE(table->column(1).CheckConsistency().ok());
  ASSERT_TRUE(db.Execute("DELETE FROM t WHERE k = -1").ok());
  EXPECT_FALSE(table->column(1).is_dictionary());
  EXPECT_EQ(Answers(&db), at_cap);
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (-2, 'v7')").ok());
  EXPECT_FALSE(table->column(1).is_dictionary());
  auto count = db.Execute("SELECT COUNT(*) FROM t WHERE s = 'v7'");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->Get(0, 0).int64_value(), v7_rows + 1);
}

TEST(DictionaryTest, HeldResultKeepsItsStringsAcrossTableWrites) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k BIGINT, s VARCHAR)").ok());
  std::shared_ptr<Table> table = *db.catalog().GetTable("t");
  const char* modes[] = {"MAIL", "SHIP", "", "A SHIP MODE PAST THE INLINE BUFFER"};
  for (int64_t k = 0; k < 5000; ++k) {
    Value s = k % 11 == 3 ? Value::Null() : Value::String(modes[k % 4]);
    ASSERT_TRUE(table->AppendRow({Value::Int64(k), s}).ok());
  }
  ASSERT_TRUE(table->column(1).is_dictionary());
  Chunk held = table->GetChunk(kViewBegin, kViewRows);
  ASSERT_TRUE(held.column(1).is_dictionary());
  auto result = db.Execute("SELECT k, s FROM t WHERE k >= 2040 AND k < 2100");
  ASSERT_TRUE(result.ok());
  auto grouped = db.Execute("SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY s");
  ASSERT_TRUE(grouped.ok());
  std::string held_before = held.ToString(kViewRows);
  std::string result_before = result->ToString(100);
  std::string grouped_before = grouped->ToString(100);
  const StringDict* dict_before = held.column(1).dictionary();
  size_t dict_size_before = dict_before->size();

  for (const char* sql :
       {"INSERT INTO t VALUES (-1, 'a new mode')",
        "UPDATE t SET s = 'changed' WHERE k >= 2000 AND k < 3000",
        "DELETE FROM t WHERE k < 2500"}) {
    ASSERT_TRUE(db.Execute(sql).ok()) << sql;
    EXPECT_EQ(held.ToString(kViewRows), held_before) << sql;
    EXPECT_EQ(result->ToString(100), result_before) << sql;
    EXPECT_EQ(grouped->ToString(100), grouped_before) << sql;
    // The held dictionary was cloned, never appended to.
    EXPECT_EQ(dict_before->size(), dict_size_before) << sql;
  }
  ASSERT_TRUE(table->column(1).is_dictionary());
  EXPECT_NE(table->column(1).dictionary(), dict_before);
  auto after = db.Execute("SELECT COUNT(*) FROM t WHERE s = 'changed'");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->Get(0, 0).int64_value(), 500);
}

TEST(DictionaryTest, StatsNdvMatchesBruteForceAfterDelete) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k BIGINT, s VARCHAR)").ok());
  std::shared_ptr<Table> table = *db.catalog().GetTable("t");
  for (int64_t k = 0; k < 3000; ++k) {
    Value s = k % 13 == 0 ? Value::Null()
                          : Value::String("s" + std::to_string(k % 40));
    ASSERT_TRUE(table->AppendRow({Value::Int64(k), s}).ok());
  }
  // Leaves values s0..s9 in the dictionary with no row holding them.
  ASSERT_TRUE(db.Execute("DELETE FROM t WHERE k % 40 < 10").ok());
  const ColumnVector& col = table->column(1);
  ASSERT_TRUE(col.is_dictionary());
  EXPECT_EQ(col.dictionary()->size(), 40u);

  std::set<std::string> distinct;
  int64_t nulls = 0;
  for (size_t r = 0; r < col.size(); ++r) {
    if (col.IsNull(r)) {
      ++nulls;
    } else {
      distinct.insert(col.GetString(r));
    }
  }
  TableStats stats = ComputeTableStats(*table);
  EXPECT_EQ(stats.columns[1].ndv, static_cast<int64_t>(distinct.size()));
  EXPECT_EQ(stats.columns[1].ndv, 30);
  EXPECT_EQ(stats.columns[1].null_count, nulls);
  EXPECT_FALSE(stats.columns[1].has_minmax);
  // The row-at-a-time count over value hashes agrees.
  std::set<uint64_t> hashes;
  for (size_t r = 0; r < col.size(); ++r) {
    if (!col.IsNull(r)) hashes.insert(col.HashRow(r));
  }
  EXPECT_EQ(stats.columns[1].ndv, static_cast<int64_t>(hashes.size()));
}

TEST(ChunkTest, AppendRowsAndGather) {
  Schema schema({{"a", TypeId::kInt64, false}, {"b", TypeId::kString, true}});
  Chunk chunk(schema);
  chunk.AppendRow({Value::Int64(1), Value::String("x")});
  chunk.AppendRow({Value::Int64(2), Value::Null()});
  EXPECT_EQ(chunk.num_rows(), 2u);
  auto row = chunk.RowValues(1);
  EXPECT_EQ(row[0].int64_value(), 2);
  EXPECT_TRUE(row[1].is_null());

  Chunk selected = chunk.GatherRows({1});
  EXPECT_EQ(selected.num_rows(), 1u);
  EXPECT_EQ(selected.column(0).GetInt64(0), 2);
}

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>(
        "t", Schema({{"k", TypeId::kInt64, false},
                     {"v", TypeId::kString, true},
                     {"d", TypeId::kDouble, true}}));
    for (int i = 0; i < 5000; ++i) {
      ASSERT_TRUE(table_->AppendRow({Value::Int64(i),
                                     Value::String("s" + std::to_string(i % 7)),
                                     Value::Double(i * 0.5)}).ok());
    }
  }
  std::unique_ptr<Table> table_;
};

TEST_F(TableTest, AppendAndGetChunk) {
  EXPECT_EQ(table_->num_rows(), 5000u);
  Chunk chunk = table_->GetChunk(2048, 2048);
  EXPECT_EQ(chunk.num_rows(), 2048u);
  EXPECT_EQ(chunk.column(0).GetInt64(0), 2048);
  // Tail chunk is short.
  Chunk tail = table_->GetChunk(4096, 2048);
  EXPECT_EQ(tail.num_rows(), 904u);
  // Projection returns a column subset.
  Chunk projected = table_->GetChunk(0, 10, {2, 0});
  EXPECT_EQ(projected.num_columns(), 2u);
  EXPECT_DOUBLE_EQ(projected.column(0).GetDouble(3), 1.5);
  EXPECT_EQ(projected.column(1).GetInt64(3), 3);
}

TEST_F(TableTest, RowTypeCoercionAndErrors) {
  // Int literal into double column coerces.
  ASSERT_TRUE(table_->AppendRow({Value::Int64(9999), Value::String("x"),
                                 Value::Int64(3)}).ok());
  EXPECT_DOUBLE_EQ(table_->column(2).GetDouble(5000), 3.0);
  // Wrong arity fails.
  EXPECT_FALSE(table_->AppendRow({Value::Int64(1)}).ok());
}

TEST_F(TableTest, ZoneMapsBoundBlocks) {
  table_->BuildZoneMaps();
  ASSERT_TRUE(table_->HasZoneMaps());
  std::shared_ptr<const ZoneMap> zm = table_->GetZoneMap(0);
  ASSERT_NE(zm, nullptr);
  ASSERT_EQ(zm->blocks.size(), (5000 + kChunkSize - 1) / kChunkSize);
  // Block 0 holds keys [0, 2047].
  EXPECT_DOUBLE_EQ(zm->blocks[0].min, 0);
  EXPECT_DOUBLE_EQ(zm->blocks[0].max, 2047);
  EXPECT_TRUE(zm->BlockMayMatch(0, 100, 200));
  EXPECT_FALSE(zm->BlockMayMatch(0, 3000, 4000));
  // String column has no zone map.
  EXPECT_EQ(table_->GetZoneMap(1), nullptr);
}

TEST_F(TableTest, ZoneMapsInvalidatedByAppend) {
  table_->BuildZoneMaps();
  ASSERT_TRUE(table_->HasZoneMaps());
  ASSERT_TRUE(table_->AppendRow({Value::Int64(-1), Value::Null(),
                                 Value::Null()}).ok());
  EXPECT_FALSE(table_->HasZoneMaps());
}

TEST_F(TableTest, HashIndexProbe) {
  ASSERT_TRUE(table_->BuildHashIndex("idx_k", 0).ok());
  std::shared_ptr<const HashIndex> index = table_->GetHashIndex(0);
  ASSERT_NE(index, nullptr);
  uint64_t hash = table_->column(0).HashRow(123);
  auto candidates = index->Probe(hash);
  // The true row must be among the candidates.
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 123),
            candidates.end());
  EXPECT_EQ(table_->GetHashIndex(1), nullptr);
}

TEST_F(TableTest, SortedCopyPreservesRowsChangesOrder) {
  // Sort by the string column (7 distinct values).
  auto sorted = table_->SortedCopy("t_sorted", 1);
  ASSERT_EQ(sorted->num_rows(), table_->num_rows());
  for (size_t r = 1; r < sorted->num_rows(); ++r) {
    EXPECT_LE(sorted->column(1).GetString(r - 1),
              sorted->column(1).GetString(r));
  }
  // Content preserved: sum of key column identical.
  int64_t sum_orig = 0, sum_sorted = 0;
  for (size_t r = 0; r < table_->num_rows(); ++r) {
    sum_orig += table_->column(0).GetInt64(r);
    sum_sorted += sorted->column(0).GetInt64(r);
  }
  EXPECT_EQ(sum_orig, sum_sorted);
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog;
  auto t = catalog.CreateTable("Foo", Schema({{"a", TypeId::kInt64, false}}));
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(catalog.HasTable("foo"));  // case-insensitive
  EXPECT_TRUE(catalog.HasTable("FOO"));
  auto dup = catalog.CreateTable("foo", Schema());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  auto got = catalog.GetTable("foo");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->name(), "Foo");
  EXPECT_EQ(catalog.TableNames().size(), 1u);
  ASSERT_TRUE(catalog.DropTable("FOO").ok());
  EXPECT_EQ(catalog.GetTable("foo").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.DropTable("foo").code(), StatusCode::kNotFound);
}

TEST(CsvTest, ReadBasic) {
  std::istringstream in(
      "id,name,score,joined\n"
      "1,alice,9.5,2020-01-15\n"
      "2,bob,,2021-06-01\n"
      "3,\"c,d\",7.25,2022-12-31\n");
  Schema schema({{"id", TypeId::kInt64, false},
                 {"name", TypeId::kString, false},
                 {"score", TypeId::kDouble, true},
                 {"joined", TypeId::kDate, false}});
  auto table = ReadCsv(in, "people", schema);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->num_rows(), 3u);
  EXPECT_TRUE((*table)->column(2).IsNull(1));  // empty -> NULL
  EXPECT_EQ((*table)->column(1).GetString(2), "c,d");  // quoted comma
  EXPECT_EQ((*table)->column(3).GetInt64(0), MakeDate(2020, 1, 15));
}

TEST(CsvTest, QuotedEscapesAndCrlf) {
  std::istringstream in("v\n\"he said \"\"hi\"\"\"\r\n");
  Schema schema({{"v", TypeId::kString, false}});
  auto table = ReadCsv(in, "q", schema);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->column(0).GetString(0), "he said \"hi\"");
}

TEST(CsvTest, FieldCountMismatchFails) {
  std::istringstream in("a,b\n1,2\n3\n");
  Schema schema(
      {{"a", TypeId::kInt64, false}, {"b", TypeId::kInt64, false}});
  auto table = ReadCsv(in, "bad", schema);
  EXPECT_EQ(table.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, BadValueFailsWithLineNumber) {
  std::istringstream in("a\n1\nxyz\n");
  Schema schema({{"a", TypeId::kInt64, false}});
  auto table = ReadCsv(in, "bad", schema);
  ASSERT_FALSE(table.ok());
  EXPECT_NE(table.status().message().find("line 3"), std::string::npos);
}

TEST(CsvTest, WriteReadRoundTrip) {
  Table table("rt", Schema({{"n", TypeId::kInt64, false},
                            {"s", TypeId::kString, true}}));
  ASSERT_TRUE(table.AppendRow({Value::Int64(1),
                               Value::String("plain")}).ok());
  ASSERT_TRUE(table.AppendRow({Value::Int64(2),
                               Value::String("with,comma")}).ok());
  ASSERT_TRUE(table.AppendRow({Value::Int64(3),
                               Value::String("with\"quote")}).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(table, out).ok());
  std::istringstream in(out.str());
  auto back = ReadCsv(in, "rt2", table.schema());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ((*back)->num_rows(), 3u);
  EXPECT_EQ((*back)->column(1).GetString(1), "with,comma");
  EXPECT_EQ((*back)->column(1).GetString(2), "with\"quote");
}

}  // namespace
}  // namespace agora
