#ifndef AGORA_STORAGE_CHUNK_H_
#define AGORA_STORAGE_CHUNK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/column_vector.h"
#include "types/schema.h"

namespace agora {

/// Number of rows processed per batch by the vectorized engine.
inline constexpr size_t kChunkSize = 2048;
static_assert(kDictCap == kChunkSize,
              "a string dictionary is never larger than one batch");

/// Chunk::morsel() of a chunk whose rows are not one scan morsel's.
inline constexpr size_t kNoMorsel = SIZE_MAX;

/// A batch of rows in columnar form — the unit of data flow between
/// execution operators.
class Chunk {
 public:
  Chunk() = default;
  /// Creates an empty chunk with one column per schema field.
  explicit Chunk(const Schema& schema);

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const {
    return columns_.empty() ? explicit_rows_ : columns_[0].size();
  }
  bool empty() const { return num_rows() == 0; }

  const ColumnVector& column(size_t i) const { return columns_[i]; }
  ColumnVector& column(size_t i) { return columns_[i]; }
  /// All columns at once (batch kernels like GroupKeyTable::FindOrCreate
  /// take the key columns as one vector).
  const std::vector<ColumnVector>& columns() const { return columns_; }
  void AddColumn(ColumnVector col) { columns_.push_back(std::move(col)); }

  /// For zero-column results (e.g. COUNT(*) pipelines) the row count must
  /// be carried explicitly.
  void SetExplicitRowCount(size_t n) { explicit_rows_ = n; }

  /// Index of the table-scan morsel (exec/scan.h) this chunk's rows came
  /// from, or kNoMorsel. The scan sets it and the per-chunk transforms
  /// above it (filter, project, hash-join probe) carry it, so the hash
  /// aggregate can cut its partials at the same morsel boundaries on the
  /// serial, budgeted and morsel-parallel paths.
  size_t morsel() const { return morsel_; }
  void set_morsel(size_t morsel) { morsel_ = morsel; }

  /// Appends one row of Values (slow path; tests and tiny inserts).
  void AppendRow(const std::vector<Value>& row);

  /// Appends row `row` from `other` (schemas must align).
  void AppendRowFrom(const Chunk& other, size_t row);

  /// Concatenates `parts` (each laid out as `schema`) into one chunk,
  /// column by column, freeing each part's column once it is copied, so
  /// the copy needs one column of headroom rather than a second result.
  static Chunk Concat(const Schema& schema, std::vector<Chunk> parts);

  /// Keeps only rows named in `sel` (in order). Applies to every column;
  /// the result keeps this chunk's morsel index.
  Chunk GatherRows(const std::vector<uint32_t>& sel) const;

  /// Boxes one row as Values (result-set boundary).
  std::vector<Value> RowValues(size_t row) const;

  /// Sum of column memory (resource accounting).
  size_t MemoryBytes() const;

  /// Multi-line "v1 | v2 | ..." rendering for tests/debugging.
  std::string ToString(size_t max_rows = 10) const;

 private:
  std::vector<ColumnVector> columns_;
  size_t explicit_rows_ = 0;
  size_t morsel_ = kNoMorsel;
};

}  // namespace agora

#endif  // AGORA_STORAGE_CHUNK_H_
