#include "optimizer/stats.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

namespace agora {

TableStats ComputeTableStats(const Table& table) {
  TableStats stats;
  stats.row_count = static_cast<int64_t>(table.num_rows());
  stats.columns.resize(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const ColumnVector& col = table.column(c);
    ColumnStats& cs = stats.columns[c];
    if (col.is_dictionary()) {
      // NDV from a bitmap over the codes in use (a DELETE can leave
      // dictionary values no row holds), then their distinct hashes, as
      // the row-at-a-time path below counts.
      const StringDict& dict = *col.dictionary();
      std::vector<uint8_t> used(dict.size(), 0);
      const int64_t* codes = col.int64_data();
      const uint8_t* valid = col.validity_data();
      for (size_t r = 0; r < col.size(); ++r) {
        if (valid[r] == 0) {
          cs.null_count++;
        } else {
          used[codes[r]] = 1;
        }
      }
      std::unordered_set<uint64_t> hashes;
      for (size_t code = 0; code < used.size(); ++code) {
        if (used[code] != 0) hashes.insert(dict.hashes()[code]);
      }
      cs.ndv = static_cast<int64_t>(hashes.size());
      continue;
    }
    std::unordered_set<uint64_t> distinct;
    distinct.reserve(std::min<size_t>(table.num_rows(), 1 << 20));
    bool numeric = IsNumeric(col.type()) || col.type() == TypeId::kBool;
    for (size_t r = 0; r < col.size(); ++r) {
      if (col.IsNull(r)) {
        cs.null_count++;
        continue;
      }
      distinct.insert(col.HashRow(r));
      if (numeric) {
        double v = col.GetNumeric(r);
        if (!cs.has_minmax) {
          cs.min = cs.max = v;
          cs.has_minmax = true;
        } else {
          cs.min = std::min(cs.min, v);
          cs.max = std::max(cs.max, v);
        }
      }
    }
    cs.ndv = static_cast<int64_t>(distinct.size());
  }
  return stats;
}

std::shared_ptr<const TableStats> StatsCache::Get(const Table& table) {
  size_t rows = table.num_rows();
  {
    MutexLock lock(mu_);
    auto it = cache_.find(table.id());
    if (it != cache_.end() && it->second.row_count == rows) {
      return it->second.stats;
    }
  }
  // Compute outside the lock: a full stats pass is expensive, and two
  // queries racing a cold table both computing identical stats beats one
  // of them blocking every other planner on the cache mutex.
  auto stats = std::make_shared<const TableStats>(ComputeTableStats(table));
  MutexLock lock(mu_);
  cache_.insert_or_assign(table.id(), Entry{rows, stats});
  return stats;
}

void StatsCache::Evict(uint64_t table_id) {
  MutexLock lock(mu_);
  cache_.erase(table_id);
}

}  // namespace agora
