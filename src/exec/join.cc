#include "exec/join.h"

#include <algorithm>
#include <numeric>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "exec/parallel.h"
#include "exec/scan.h"
#include "exec/spill_util.h"

namespace agora {

namespace {

// Appends left row `lrow` ⊕ right row `rrow` to `out` (whose columns are
// left columns followed by right columns). `rrow` < 0 pads NULLs.
void AppendJoinedRow(const Chunk& left, size_t lrow, const Chunk& right,
                     int64_t rrow, Chunk* out) {
  size_t lcols = left.num_columns();
  for (size_t c = 0; c < lcols; ++c) {
    out->column(c).AppendFrom(left.column(c), lrow);
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    if (rrow < 0) {
      out->column(lcols + c).AppendNull();
    } else {
      out->column(lcols + c).AppendFrom(right.column(c),
                                        static_cast<size_t>(rrow));
    }
  }
}

/// Evaluates `exprs` over `data` into `keys` and hashes them column-at-a-
/// time into `hashes`. The salt only perturbs slot/Bloom bit choice: build
/// and probe fold it in identically, so the match relation is unchanged.
/// valid[r] == 0 when some key of row r is NULL (NULL keys never match).
Status HashKeys(const std::vector<ExprPtr>& exprs, const Chunk& data,
                std::vector<ColumnVector>* keys, std::vector<uint64_t>* hashes,
                std::vector<uint8_t>* valid) {
  size_t rows = data.num_rows();
  keys->resize(exprs.size());
  hashes->assign(rows, kHashTableSalt);
  valid->assign(rows, 1);
  for (size_t k = 0; k < exprs.size(); ++k) {
    AGORA_RETURN_IF_ERROR(exprs[k]->Evaluate(data, &(*keys)[k]));
    (*keys)[k].HashBatch(hashes->data(), rows, /*combine=*/true,
                         /*normalize_zero=*/false);
    const uint8_t* key_valid = (*keys)[k].validity_data();
    for (size_t r = 0; r < rows; ++r) (*valid)[r] &= key_valid[r];
  }
  return Status::OK();
}

/// Appends rows `sel[0..n)` of every column of `src` to a fresh chunk.
Chunk GatherColumns(const Chunk& src, const uint32_t* sel, size_t n) {
  Chunk out;
  for (size_t c = 0; c < src.num_columns(); ++c) {
    ColumnVector col(src.column(c).type());
    col.AppendGatherPadded(src.column(c), sel, n);
    out.AddColumn(std::move(col));
  }
  return out;
}

/// Appends every row of `src` to `dst` (same column layout).
void AppendChunk(const Chunk& src, Chunk* dst) {
  std::vector<uint32_t> iota(src.num_rows());
  std::iota(iota.begin(), iota.end(), 0u);
  for (size_t c = 0; c < dst->num_columns(); ++c) {
    dst->column(c).AppendGatherPadded(src.column(c), iota.data(),
                                      iota.size());
  }
}

}  // namespace

PhysicalHashJoin::PhysicalHashJoin(PhysicalOpPtr left, PhysicalOpPtr right,
                                   std::vector<ExprPtr> left_keys,
                                   std::vector<ExprPtr> right_keys,
                                   ExprPtr residual, PhysicalJoinKind kind,
                                   ExecContext* context)
    : PhysicalChunkTransform(left->schema().Concat(right->schema()),
                             std::move(left), context),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual)),
      kind_(kind),
      build_phase_id_(context != nullptr ? context->RegisterOp() : -1),
      probe_phase_id_(context != nullptr ? context->RegisterOp() : -1) {
  AGORA_CHECK(!left_keys_.empty() && left_keys_.size() == right_keys_.size());
  // Budgeted queries take the spill-capable path. The decision depends
  // only on the budget configuration (never on worker count or data), so
  // the plan behaves identically at every thread count.
  spill_mode_ = context != nullptr && context->spill != nullptr &&
                context->memory_limited();
}

Status PhysicalHashJoin::OpenImpl() {
  AGORA_RETURN_IF_ERROR(PhysicalChunkTransform::OpenImpl());
  if (spill_mode_) return OpenSpill();
  // The build side collects through the morsel pipeline when it has the
  // shape; chunks come back in morsel order, so row ids never depend on
  // the worker count.
  AGORA_ASSIGN_OR_RETURN(build_data_, CollectAll(right_.get()));
  context_->stats.bytes_materialized +=
      static_cast<int64_t>(build_data_.MemoryBytes());
  // The build phase covers hashing + table fill, not the child collection
  // above (that time belongs to the child operators).
  MetricSpan span = StatsSpan(&context_->stats, build_phase_id_);
  AGORA_RETURN_IF_ERROR(BuildTable());
  CountTable();
  return Status::OK();
}

Status PhysicalHashJoin::BuildTable() {
  AGORA_RETURN_IF_ERROR(HashKeys(right_keys_, build_data_, &build_keys_,
                                 &build_hashes_, &build_valid_));
  // Partition the insertions across workers: worker p owns partition p
  // outright, so no locks are needed and chains stay in ascending row
  // order — the partition count never changes results.
  size_t rows = build_data_.num_rows();
  ThreadPool* pool = context_->PoolFor(rows);
  size_t num_partitions =
      pool != nullptr ? static_cast<size_t>(context_->num_workers) : 1;
  table_ = std::make_unique<JoinHashTable>();
  AGORA_RETURN_IF_ERROR(
      table_->Build(build_hashes_.data(), build_valid_.data(), rows,
                    num_partitions, num_partitions > 1 ? pool : nullptr));
  return Status::OK();
}

void PhysicalHashJoin::CountTable() {
  context_->stats.hash_table_entries += table_->entries();
  context_->stats.hash_table_slots += table_->slot_count();
}

void PhysicalHashJoin::ReleaseBuild() {
  table_.reset();
  build_data_ = Chunk();
  build_keys_.clear();
  std::vector<uint64_t>().swap(build_hashes_);
  std::vector<uint8_t>().swap(build_valid_);
}

Status PhysicalHashJoin::Probe(const Chunk& probe, size_t lcols,
                               const int64_t* row_idx,
                               std::vector<std::vector<uint32_t>>* divert,
                               Chunk* out, ExecStats* stats) const {
  MetricSpan span = StatsSpan(stats, probe_phase_id_);
  size_t rows = probe.num_rows();
  std::vector<ColumnVector> probe_keys;
  std::vector<uint64_t> hashes;
  std::vector<uint8_t> valid;
  AGORA_RETURN_IF_ERROR(
      HashKeys(left_keys_, probe, &probe_keys, &hashes, &valid));

  // Gather candidate (probe row, build row) pairs: Bloom filter first,
  // then the hash-chain walk. Pairs are grouped by probe row in row
  // order, with chains in ascending build-row order. A diverted row is
  // neither matched nor padded here; its partition's deferred pass does
  // both.
  std::vector<uint8_t> pad(rows, kind_ == PhysicalJoinKind::kLeftOuter);
  HashTableStats ht;
  std::vector<uint32_t> pair_l, pair_b;
  for (size_t r = 0; r < rows; ++r) {
    if (valid[r] == 0) continue;
    uint64_t h = hashes[r];
    if (divert != nullptr && parts_[h % parts_.size()].spilled) {
      (*divert)[h % parts_.size()].push_back(static_cast<uint32_t>(r));
      pad[r] = 0;
      continue;
    }
    stats->bloom_checked_rows++;
    if (!table_->bloom().MightContain(h)) {
      stats->bloom_filtered_rows++;
      continue;
    }
    for (uint32_t ref = table_->Find(h, &ht); ref != 0;
         ref = table_->Next(ref)) {
      stats->probe_calls++;
      pair_l.push_back(static_cast<uint32_t>(r));
      pair_b.push_back(ref - 1);
    }
  }
  stats->hash_table_lookups += ht.lookups;
  stats->hash_table_probe_steps += ht.probe_steps;

  // Verify all candidates column-at-a-time against the build keys.
  size_t m = pair_l.size();
  std::vector<uint8_t> equal(m, 1);
  for (size_t k = 0; k < probe_keys.size(); ++k) {
    probe_keys[k].BatchEqualRows(pair_l.data(), build_keys_[k],
                                 pair_b.data(), m, /*bitwise_doubles=*/false,
                                 equal.data());
  }

  // Emit survivors in probe-row order (UINT32_MAX pads outer-join rows).
  std::vector<uint32_t> lsel, rsel;
  size_t ptr = 0;
  for (size_t r = 0; r < rows; ++r) {
    bool matched = false;
    while (ptr < m && pair_l[ptr] == r) {
      if (equal[ptr] != 0) {
        lsel.push_back(static_cast<uint32_t>(r));
        rsel.push_back(pair_b[ptr]);
        matched = true;
      }
      ++ptr;
    }
    if (!matched && pad[r] != 0) {
      lsel.push_back(static_cast<uint32_t>(r));
      rsel.push_back(UINT32_MAX);
    }
  }

  Chunk result(schema_);
  result.set_morsel(probe.morsel());
  if (!lsel.empty()) {
    for (size_t c = 0; c < lcols; ++c) {
      result.column(c).AppendGatherPadded(probe.column(c), lsel.data(),
                                          lsel.size());
    }
    for (size_t c = 0; c < build_data_.num_columns(); ++c) {
      result.column(lcols + c).AppendGatherPadded(build_data_.column(c),
                                                  rsel.data(), rsel.size());
    }
    if (row_idx != nullptr) {
      ColumnVector idx(TypeId::kInt64);
      for (uint32_t r : lsel) idx.AppendInt64(row_idx[r]);
      result.AddColumn(std::move(idx));
    }
  }
  if (residual_ != nullptr && result.num_rows() > 0 &&
      kind_ != PhysicalJoinKind::kLeftOuter) {
    AGORA_ASSIGN_OR_RETURN(result, FilterChunk(result, *residual_, stats));
  }
  stats->rows_joined += static_cast<int64_t>(result.num_rows());
  span.AddRows(static_cast<int64_t>(result.num_rows()));
  *out = std::move(result);
  return Status::OK();
}

Status PhysicalHashJoin::Execute(const Chunk& probe, Chunk* out,
                                 ExecStats* stats) const {
  return Probe(probe, probe.num_columns(), /*row_idx=*/nullptr,
               /*divert=*/nullptr, out, stats);
}

Status PhysicalHashJoin::OpenSpill() {
  any_spilled_ = false;
  parts_.clear();
  merge_.Clear();
  morsel_starts_.clear();
  immediate_file_.reset();

  const size_t num_parts = std::max<size_t>(1, context_->spill_partitions);
  parts_.resize(num_parts);

  // Serial build drain: rows land in their hash partition's buffer (or
  // go straight to its file once the partition has spilled). Shedding
  // decisions happen at chunk granularity and only affect *where* rows
  // wait, never what the join produces.
  {
    MetricSpan span = StatsSpan(&context_->stats, build_phase_id_);
    AGORA_RETURN_IF_ERROR(right_->Open());
    std::vector<ColumnVector> keys;
    std::vector<uint64_t> hashes;
    std::vector<uint8_t> valid;
    std::vector<std::vector<uint32_t>> psel(num_parts);
    bool done = false;
    while (!done) {
      Chunk chunk;
      AGORA_RETURN_IF_ERROR(right_->Next(&chunk, &done));
      size_t rows = chunk.num_rows();
      if (rows == 0) continue;
      context_->stats.bytes_materialized +=
          static_cast<int64_t>(chunk.MemoryBytes());
      AGORA_RETURN_IF_ERROR(
          HashKeys(right_keys_, chunk, &keys, &hashes, &valid));
      // NULL-key build rows can never match and the probe side supplies
      // all outer-join padding, so they are dropped here — same net
      // effect as the in-memory table, which skips them at insert time.
      for (std::vector<uint32_t>& sel : psel) sel.clear();
      for (size_t r = 0; r < rows; ++r) {
        if (valid[r] != 0) {
          psel[hashes[r] % num_parts].push_back(static_cast<uint32_t>(r));
        }
      }
      for (size_t p = 0; p < num_parts; ++p) {
        if (psel[p].empty()) continue;
        SpillPartition& part = parts_[p];
        Chunk pc = GatherColumns(chunk, psel[p].data(), psel[p].size());
        if (part.spilled) {
          AGORA_RETURN_IF_ERROR(
              SpillWriteChunk(part.build_file.get(), pc, &context_->stats));
        } else {
          part.rows += psel[p].size();
          part.buffered.push_back(std::move(pc));
        }
      }
      while (context_->memory->over_budget() && PickVictim() != SIZE_MAX) {
        AGORA_RETURN_IF_ERROR(SpillBufferedVictim());
      }
    }
    AGORA_RETURN_IF_ERROR(PrepareResident());
  }
  if (!any_spilled_) return Status::OK();  // NextImpl streams the probe

  // Some partitions went to disk: drain the probe side now, spooling
  // index-tagged output, then join each spilled partition from its files.
  AGORA_RETURN_IF_ERROR(DrainProbeToStreams());
  for (SpillPartition& part : parts_) {
    if (part.spilled) {
      AGORA_RETURN_IF_ERROR(ProcessDeferredPartition(&part));
    }
  }
  ReleaseBuild();  // the merge below needs no build rows

  // Arm the k-way merge: one stream for the immediate output plus one per
  // spilled partition. Probe-row indices are disjoint across streams and
  // ascending within each, so the merge restores global probe order.
  AGORA_RETURN_IF_ERROR(
      merge_.AddFile(immediate_file_.get(), &context_->stats));
  for (SpillPartition& part : parts_) {
    if (part.out_file != nullptr) {
      AGORA_RETURN_IF_ERROR(
          merge_.AddFile(part.out_file.get(), &context_->stats));
    }
  }
  return Status::OK();
}

size_t PhysicalHashJoin::PickVictim() const {
  size_t victim = SIZE_MAX;
  size_t best_rows = 0;
  for (size_t p = 0; p < parts_.size(); ++p) {
    const SpillPartition& part = parts_[p];
    if (!part.spilled && part.rows > best_rows) {
      victim = p;
      best_rows = part.rows;
    }
  }
  return victim;
}

Status PhysicalHashJoin::SpillBufferedVictim() {
  size_t victim = PickVictim();
  AGORA_CHECK(victim != SIZE_MAX);
  SpillPartition& part = parts_[victim];
  if (part.build_file == nullptr) {
    AGORA_ASSIGN_OR_RETURN(part.build_file, context_->spill->Create());
  }
  for (const Chunk& pc : part.buffered) {
    AGORA_RETURN_IF_ERROR(
        SpillWriteChunk(part.build_file.get(), pc, &context_->stats));
  }
  std::vector<Chunk>().swap(part.buffered);
  part.rows = 0;
  part.spilled = true;
  any_spilled_ = true;
  context_->stats.spill_partitions++;
  return Status::OK();
}

Status PhysicalHashJoin::PrepareResident() {
  // Move the buffered partitions into one concatenation, freeing each
  // buffer chunk as it lands. Partition order + arrival order makes the
  // layout deterministic for a given shed history. Rows of one key hash
  // share a partition, so every chain keeps arrival order — the order the
  // in-memory table gives the same rows.
  build_data_ = Chunk(right_->schema());
  size_t offset = 0;
  for (SpillPartition& part : parts_) {
    part.base = offset;
    for (Chunk& pc : part.buffered) {
      AppendChunk(pc, &build_data_);
      pc = Chunk();  // free as we go
    }
    std::vector<Chunk>().swap(part.buffered);
    offset += part.rows;
  }

  // Build the table over the resident rows. If it pushes the query back
  // over budget, shed the largest partition and rebuild — at most P
  // rounds.
  for (;;) {
    AGORA_RETURN_IF_ERROR(BuildTable());
    if (!context_->memory->over_budget()) break;
    size_t victim = PickVictim();
    if (victim == SIZE_MAX) break;  // nothing left to shed; reloads decide
    AGORA_RETURN_IF_ERROR(SpillResidentVictim(victim));
    ReconcatResident();
  }
  CountTable();
  return Status::OK();
}

Status PhysicalHashJoin::SpillResidentVictim(size_t victim) {
  SpillPartition& part = parts_[victim];
  if (part.build_file == nullptr) {
    AGORA_ASSIGN_OR_RETURN(part.build_file, context_->spill->Create());
  }
  std::vector<uint32_t> sel;
  for (size_t start = 0; start < part.rows; start += kChunkSize) {
    size_t n = std::min(kChunkSize, part.rows - start);
    sel.resize(n);
    std::iota(sel.begin(), sel.end(),
              static_cast<uint32_t>(part.base + start));
    AGORA_RETURN_IF_ERROR(
        SpillWriteChunk(part.build_file.get(),
                        GatherColumns(build_data_, sel.data(), n),
                        &context_->stats));
  }
  part.rows = 0;
  part.spilled = true;
  any_spilled_ = true;
  context_->stats.spill_partitions++;
  return Status::OK();
}

void PhysicalHashJoin::ReconcatResident() {
  // The table, keys and hashes index the old layout: drop them first, then
  // gather one column at a time, freeing each old column as it goes, so
  // the reconcat needs one column of headroom rather than a second copy.
  Chunk old = std::move(build_data_);
  ReleaseBuild();
  std::vector<uint32_t> sel;
  for (SpillPartition& part : parts_) {
    size_t old_base = part.base;
    part.base = sel.size();
    for (size_t i = 0; i < part.rows; ++i) {
      sel.push_back(static_cast<uint32_t>(old_base + i));
    }
  }
  for (size_t c = 0; c < old.num_columns(); ++c) {
    build_data_.AddColumn(old.column(c).Gather(sel));
    old.column(c) = ColumnVector();
  }
}

Status PhysicalHashJoin::DrainProbeToStreams() {
  AGORA_ASSIGN_OR_RETURN(immediate_file_, context_->spill->Create());
  std::vector<std::vector<uint32_t>> divert(parts_.size());
  std::vector<int64_t> row_idx;
  int64_t base_idx = 0;
  bool done = false;
  while (!done) {
    Chunk probe;
    AGORA_RETURN_IF_ERROR(input_->Next(&probe, &done));
    size_t rows = probe.num_rows();
    if (rows == 0) continue;
    if (morsel_starts_.empty() ||
        morsel_starts_.back().second != probe.morsel()) {
      morsel_starts_.emplace_back(base_idx, probe.morsel());
    }
    row_idx.resize(rows);
    std::iota(row_idx.begin(), row_idx.end(), base_idx);
    for (std::vector<uint32_t>& sel : divert) sel.clear();
    Chunk out;
    AGORA_RETURN_IF_ERROR(Probe(probe, probe.num_columns(), row_idx.data(),
                                &divert, &out, &context_->stats));
    if (out.num_rows() > 0) {
      AGORA_RETURN_IF_ERROR(
          SpillWriteChunk(immediate_file_.get(), out, &context_->stats));
    }
    for (size_t p = 0; p < parts_.size(); ++p) {
      if (divert[p].empty()) continue;
      SpillPartition& part = parts_[p];
      if (part.probe_file == nullptr) {
        AGORA_ASSIGN_OR_RETURN(part.probe_file, context_->spill->Create());
      }
      Chunk pc = GatherColumns(probe, divert[p].data(), divert[p].size());
      ColumnVector idx(TypeId::kInt64);
      for (uint32_t r : divert[p]) idx.AppendInt64(base_idx + r);
      pc.AddColumn(std::move(idx));
      AGORA_RETURN_IF_ERROR(
          SpillWriteChunk(part.probe_file.get(), pc, &context_->stats));
    }
    base_idx += static_cast<int64_t>(rows);
  }
  return Status::OK();
}

Status PhysicalHashJoin::ProcessDeferredPartition(SpillPartition* part) {
  // Reload the partition's build rows in place of the previous build
  // state. A partition that still cannot fit alone is the graceful-
  // failure point of the whole scheme: the query errors with
  // ResourceExhausted instead of thrashing or aborting.
  {
    MetricSpan span = StatsSpan(&context_->stats, build_phase_id_);
    ReleaseBuild();
    build_data_ = Chunk(right_->schema());
    AGORA_RETURN_IF_ERROR(part->build_file->Rewind());
    for (;;) {
      Chunk pc;
      bool eof = false;
      AGORA_RETURN_IF_ERROR(SpillReadChunk(part->build_file.get(), &pc, &eof,
                                           &context_->stats));
      if (eof) break;
      AppendChunk(pc, &build_data_);
    }
    context_->spill->Recycle(std::move(part->build_file));
    AGORA_RETURN_IF_ERROR(
        context_->CheckMemoryBudget("HashJoin::spill-reload"));
    AGORA_RETURN_IF_ERROR(BuildTable());
    CountTable();
  }
  if (part->probe_file == nullptr) return Status::OK();  // nothing diverted

  // Probe the diverted rows in file order (= ascending global index); the
  // trailing index column rides along into the output.
  AGORA_RETURN_IF_ERROR(part->probe_file->Rewind());
  AGORA_ASSIGN_OR_RETURN(part->out_file, context_->spill->Create());
  for (;;) {
    Chunk pc;
    bool eof = false;
    AGORA_RETURN_IF_ERROR(SpillReadChunk(part->probe_file.get(), &pc, &eof,
                                         &context_->stats));
    if (eof) break;
    size_t lcols = pc.num_columns() - 1;
    Chunk out;
    AGORA_RETURN_IF_ERROR(Probe(pc, lcols, pc.column(lcols).int64_data(),
                                /*divert=*/nullptr, &out, &context_->stats));
    if (out.num_rows() > 0) {
      AGORA_RETURN_IF_ERROR(
          SpillWriteChunk(part->out_file.get(), out, &context_->stats));
    }
  }
  context_->spill->Recycle(std::move(part->probe_file));
  return Status::OK();
}

Status PhysicalHashJoin::EmitMerged(Chunk* chunk, bool* done) {
  // Each output chunk stays inside one probe morsel and carries its index,
  // like the chunks of a streamed probe.
  Chunk out(schema_);
  auto next = std::upper_bound(
      morsel_starts_.begin(), morsel_starts_.end(), merge_.head(),
      [](int64_t idx, const std::pair<int64_t, size_t>& start) {
        return idx < start.first;
      });
  if (next != morsel_starts_.begin()) out.set_morsel(std::prev(next)->second);
  int64_t bound = next == morsel_starts_.end() ? INT64_MAX : next->first;
  AGORA_RETURN_IF_ERROR(merge_.Next(bound, &out, &context_->stats));

  *done = merge_.done();
  if (*done) {
    // Hand every stream's file back for reuse by later operators.
    merge_.Clear();
    if (immediate_file_ != nullptr) {
      context_->spill->Recycle(std::move(immediate_file_));
    }
    for (SpillPartition& part : parts_) {
      if (part.out_file != nullptr) {
        context_->spill->Recycle(std::move(part.out_file));
      }
    }
  }
  *chunk = std::move(out);
  return Status::OK();
}

Status PhysicalHashJoin::NextImpl(Chunk* chunk, bool* done) {
  // With spilled partitions the probe already ran during Open(); emit the
  // k-way merge of the spooled streams. Otherwise stream the probe side
  // against the one table (all resident partitions under a budget).
  if (spill_mode_ && any_spilled_) return EmitMerged(chunk, done);
  return PhysicalChunkTransform::NextImpl(chunk, done);
}

PhysicalNestedLoopJoin::PhysicalNestedLoopJoin(PhysicalOpPtr left,
                                               PhysicalOpPtr right,
                                               ExprPtr condition,
                                               PhysicalJoinKind kind,
                                               ExecContext* context)
    : PhysicalOperator(left->schema().Concat(right->schema()), context),
      left_(std::move(left)),
      right_(std::move(right)),
      condition_(std::move(condition)),
      kind_(kind) {}

Status PhysicalNestedLoopJoin::OpenImpl() {
  probe_done_ = false;
  AGORA_RETURN_IF_ERROR(left_->Open());
  AGORA_ASSIGN_OR_RETURN(build_data_, CollectAll(right_.get()));
  context_->stats.bytes_materialized +=
      static_cast<int64_t>(build_data_.MemoryBytes());
  return Status::OK();
}

Status PhysicalNestedLoopJoin::NextImpl(Chunk* chunk, bool* done) {
  size_t build_rows = build_data_.num_rows();
  while (!probe_done_) {
    // Nested-loop pairing can square the working set; fail gracefully at
    // chunk granularity instead of overrunning the budget unbounded.
    AGORA_RETURN_IF_ERROR(context_->CheckMemoryBudget("NestedLoopJoin"));
    Chunk probe;
    AGORA_RETURN_IF_ERROR(left_->Next(&probe, &probe_done_));
    size_t rows = probe.num_rows();
    if (rows == 0) continue;

    Chunk out(schema_);
    // Pair every probe row with every build row, then filter.
    Chunk paired(schema_);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t b = 0; b < build_rows; ++b) {
        AppendJoinedRow(probe, r, build_data_, static_cast<int64_t>(b),
                        &paired);
      }
    }
    if (condition_ == nullptr) {
      out = std::move(paired);
    } else if (kind_ == PhysicalJoinKind::kLeftOuter) {
      // Track which probe rows matched to pad the rest.
      ColumnVector mask;
      AGORA_RETURN_IF_ERROR(condition_->Evaluate(paired, &mask));
      std::vector<bool> probe_matched(rows, false);
      std::vector<uint32_t> sel;
      for (size_t i = 0; i < paired.num_rows(); ++i) {
        if (!mask.IsNull(i) && mask.GetBool(i)) {
          sel.push_back(static_cast<uint32_t>(i));
          probe_matched[i / build_rows] = true;
        }
      }
      out = paired.GatherRows(sel);
      for (size_t r = 0; r < rows; ++r) {
        if (!probe_matched[r]) {
          AppendJoinedRow(probe, r, build_data_, -1, &out);
        }
      }
    } else {
      AGORA_ASSIGN_OR_RETURN(
          out, FilterChunk(paired, *condition_, &context_->stats));
    }
    if (kind_ == PhysicalJoinKind::kLeftOuter && build_rows == 0) {
      // Empty build side: every probe row survives, NULL-padded.
      out = Chunk(schema_);
      for (size_t r = 0; r < rows; ++r) {
        AppendJoinedRow(probe, r, build_data_, -1, &out);
      }
    }
    if (out.num_rows() == 0) continue;
    context_->stats.rows_joined += static_cast<int64_t>(out.num_rows());
    context_->stats.bytes_materialized +=
        static_cast<int64_t>(out.MemoryBytes());
    *chunk = std::move(out);
    *done = probe_done_;
    return Status::OK();
  }
  *chunk = Chunk(schema_);
  *done = true;
  return Status::OK();
}

}  // namespace agora
