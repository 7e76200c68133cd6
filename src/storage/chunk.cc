#include "storage/chunk.h"

#include <numeric>

#include "common/verify.h"
#include "storage/chunk_verify.h"

namespace agora {

Chunk::Chunk(const Schema& schema) {
  columns_.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) {
    columns_.emplace_back(f.type);
  }
}

void Chunk::AppendRow(const std::vector<Value>& row) {
  AGORA_DCHECK(row.size() == columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].AppendValue(row[i]);
  }
}

void Chunk::AppendRowFrom(const Chunk& other, size_t row) {
  AGORA_DCHECK(other.num_columns() == columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].AppendFrom(other.columns_[i], row);
  }
}

Chunk Chunk::Concat(const Schema& schema, std::vector<Chunk> parts) {
  Chunk out(schema);
  size_t total = 0;
  for (const Chunk& part : parts) total += part.num_rows();
  out.explicit_rows_ = total;
  std::vector<uint32_t> all;
  for (size_t c = 0; c < out.columns_.size(); ++c) {
    ColumnVector& dst = out.columns_[c];
    for (Chunk& part : parts) {
      ColumnVector src = std::move(part.columns_[c]);
      src.Flatten();
      all.resize(src.size());
      std::iota(all.begin(), all.end(), 0u);
      dst.AppendGatherPadded(src, all.data(), all.size());
      // The first rows fix the column's form (dictionary codes or flat
      // values); size it for every row then, so later parts append
      // without reallocating.
      if (dst.size() != 0) dst.Reserve(total);
    }
  }
  return out;
}

Chunk Chunk::GatherRows(const std::vector<uint32_t>& sel) const {
  if (VerificationEnabled()) {
    Status bounds = VerifySelection(sel, num_rows(), "Chunk::GatherRows");
    AGORA_CHECK(bounds.ok()) << bounds.message();
  }
  Chunk out;
  out.columns_.reserve(columns_.size());
  for (const auto& col : columns_) {
    out.columns_.push_back(col.Gather(sel));
  }
  out.explicit_rows_ = sel.size();
  out.morsel_ = morsel_;
  return out;
}

std::vector<Value> Chunk::RowValues(size_t row) const {
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) out.push_back(col.GetValue(row));
  return out;
}

size_t Chunk::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& col : columns_) bytes += col.MemoryBytes();
  return bytes;
}

std::string Chunk::ToString(size_t max_rows) const {
  std::string out;
  size_t rows = num_rows();
  for (size_t r = 0; r < rows && r < max_rows; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out += " | ";
      out += columns_[c].GetValue(r).ToString();
    }
    out += '\n';
  }
  if (rows > max_rows) {
    out += "... (" + std::to_string(rows - max_rows) + " more rows)\n";
  }
  return out;
}

}  // namespace agora
