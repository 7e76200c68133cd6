#include "exec/aggregate.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/hash.h"
#include "exec/parallel.h"
#include "exec/spill_util.h"

namespace agora {

namespace {

/// String MIN/MAX keeps its running value beside the fixed-width state.
bool StringMinMax(const AggregateSpec& spec) {
  return spec.result_type == TypeId::kString &&
         (spec.func == AggFunc::kMin || spec.func == AggFunc::kMax);
}

}  // namespace

PhysicalHashAggregate::PhysicalHashAggregate(
    PhysicalOpPtr child, std::vector<ExprPtr> group_by,
    std::vector<AggregateSpec> aggregates, Schema schema,
    ExecContext* context)
    : PhysicalOperator(std::move(schema), context),
      child_(std::move(child)),
      group_by_(std::move(group_by)),
      aggregates_(std::move(aggregates)) {
  for (const AggregateSpec& spec : aggregates_) {
    has_distinct_ = has_distinct_ || spec.distinct;
  }
  // Budgeted grouped aggregation takes the spill-capable path. Scalar
  // aggregation holds O(1) state (nothing to spill) and DISTINCT dedup
  // sets cannot be partially spilled exactly; both stay on the in-memory
  // path, failing gracefully via the per-chunk budget checks instead.
  // Like the join, the decision depends only on the budget configuration,
  // never on worker count or data.
  spill_mode_ = context != nullptr && context->spill != nullptr &&
                context->memory_limited() && !group_by_.empty() &&
                !has_distinct_;
}

Status PhysicalHashAggregate::OpenImpl() {
  groups_ = AggTable{};
  num_groups_ = 0;
  next_group_ = 0;
  parts_.clear();
  merge_.Clear();
  rows_seen_ = 0;
  run_ = 0;
  if (spill_mode_) {
    parts_.resize(std::max<size_t>(1, context_->spill_partitions));
  }

  AGORA_RETURN_IF_ERROR(child_->Open());
  MorselPipeline pipeline;
  if (!has_distinct_ && !spill_mode_ &&
      MorselPipeline::TryBuild(child_.get(), &pipeline)) {
    // Morsel accumulate: one partial table per morsel (single-writer),
    // folded below in morsel order — worker count never changes results.
    std::vector<AggTable> partials(pipeline.source()->MorselCount());
    AGORA_RETURN_IF_ERROR(DriveMorselPipeline(
        pipeline, context_, "HashAggregate",
        [this, &partials](int worker, const Morsel& morsel,
                          Chunk&& chunk) -> Status {
          ExecStats* stats =
              &context_->worker_stats[static_cast<size_t>(worker)];
          // Attribute accumulation to this aggregate (nests under the
          // worker's scan span and subtracts itself from it).
          MetricSpan span = StatsSpan(stats, op_id());
          return AccumulateInto(chunk, &partials[morsel.index], stats);
        }));
    for (AggTable& partial : partials) EndRun(&partial);
  } else {
    // Pull path: a run ends where the input's morsel index changes, so
    // the partials are exactly the morsel path's. The budgeted path keeps
    // one run partial per partition instead of one `partial`.
    AggTable partial;
    size_t run = kNoMorsel;
    bool done = false;
    while (!done) {
      Chunk input;
      AGORA_RETURN_IF_ERROR(child_->Next(&input, &done));
      // The in-memory table can only grow; fail gracefully at chunk
      // granularity when a budget is set (the spill path sheds instead).
      if (!spill_mode_) {
        AGORA_RETURN_IF_ERROR(context_->CheckMemoryBudget("HashAggregate"));
      }
      if (input.num_rows() == 0) continue;
      if (input.morsel() != run && !has_distinct_) EndRun(&partial);
      run = input.morsel();
      if (spill_mode_) {
        AGORA_RETURN_IF_ERROR(AccumulateSpill(input));
      } else {
        AGORA_RETURN_IF_ERROR(
            AccumulateInto(input, &partial, &context_->stats));
      }
    }
    EndRun(&partial);
  }
  if (spill_mode_) return FinishSpill();

  num_groups_ = groups_.keys.group_count();
  context_->stats.hash_table_entries += static_cast<int64_t>(num_groups_);
  context_->stats.hash_table_slots +=
      static_cast<int64_t>(groups_.keys.slot_count());
  // Scalar aggregation always yields one group.
  if (group_by_.empty() && num_groups_ == 0) {
    num_groups_ = 1;
    groups_.states.assign(aggregates_.size(), AggState{});
  }
  return Status::OK();
}

void PhysicalHashAggregate::EndRun(AggTable* partial) {
  ++run_;
  if (!spill_mode_) {
    MergePartial(partial, nullptr, &groups_, nullptr, &context_->stats);
    *partial = AggTable{};
    return;
  }
  for (AggPartition& part : parts_) {
    if (!part.spilled) FoldRun(&part);
  }
}

Status PhysicalHashAggregate::EvaluateInput(const Chunk& input,
                                            AggInput* in) const {
  in->rows = input.num_rows();
  in->keys.resize(group_by_.size());
  for (size_t g = 0; g < group_by_.size(); ++g) {
    AGORA_RETURN_IF_ERROR(group_by_[g]->Evaluate(input, &in->keys[g]));
  }
  in->args.resize(aggregates_.size());
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    if (aggregates_[a].arg != nullptr) {
      AGORA_RETURN_IF_ERROR(aggregates_[a].arg->Evaluate(input, &in->args[a]));
    }
  }
  if (!group_by_.empty()) {
    in->hashes.assign(in->rows, kHashTableSalt);
    for (const ColumnVector& col : in->keys) {
      col.HashBatch(in->hashes.data(), in->rows, /*combine=*/true,
                    /*normalize_zero=*/true);
    }
  }
  return Status::OK();
}

Status PhysicalHashAggregate::AccumulateInto(const Chunk& input,
                                             AggTable* table,
                                             ExecStats* stats) const {
  AggInput in;
  AGORA_RETURN_IF_ERROR(EvaluateInput(input, &in));
  stats->rows_aggregated += static_cast<int64_t>(in.rows);
  AccumulateInput(in, table, stats);
  return Status::OK();
}

void PhysicalHashAggregate::AccumulateInput(const AggInput& in,
                                            AggTable* table,
                                            ExecStats* stats) const {
  const size_t rows = in.rows;
  const size_t num_aggs = aggregates_.size();
  HashTableStats ht;
  if (group_by_.empty()) {
    // Scalar aggregation: one group, no per-row lookups. One
    // FindOrCreate call registers the (empty-key) group on first use.
    uint64_t h = kHashTableSalt;
    uint32_t gid;
    uint8_t created;
    table->keys.FindOrCreate(in.keys, &h, 1, &gid, &created, &ht);
    table->gid_scratch.assign(rows, 0);
  } else {
    // Resolve every row to a dense group id in one vectorized pass.
    table->gid_scratch.resize(rows);
    table->created_scratch.resize(rows);
    table->keys.FindOrCreate(in.keys, in.hashes.data(), rows,
                             table->gid_scratch.data(),
                             table->created_scratch.data(), &ht);
  }
  stats->hash_table_lookups += ht.lookups;
  stats->hash_table_probe_steps += ht.probe_steps;
  GrowStates(table);

  const uint32_t* gids = table->gid_scratch.data();
  for (size_t a = 0; a < num_aggs; ++a) {
    if (!aggregates_[a].distinct) {
      ApplyAggregate(a, in.args[a], gids, rows, table);
      continue;
    }
    // DISTINCT: dedup (group id, argument) pairs through a hashed key
    // table — no per-row key strings — then feed the first occurrences,
    // in row order, to the columnar kernel.
    const ColumnVector& arg = in.args[a];
    const uint8_t* valid = arg.validity_data();
    std::vector<uint32_t> sel;
    for (size_t r = 0; r < rows; ++r) {
      if (valid[r] != 0) sel.push_back(static_cast<uint32_t>(r));
    }
    if (sel.empty()) continue;
    std::vector<ColumnVector> dkeys;
    dkeys.emplace_back(TypeId::kInt64);
    dkeys[0].Reserve(sel.size());
    for (uint32_t r : sel) {
      dkeys[0].AppendInt64(static_cast<int64_t>(gids[r]));
    }
    dkeys.push_back(arg.Gather(sel));
    std::vector<uint64_t> dhashes(sel.size(), kHashTableSalt);
    dkeys[0].HashBatch(dhashes.data(), sel.size(), true, true);
    dkeys[1].HashBatch(dhashes.data(), sel.size(), true, true);
    if (table->distinct[a] == nullptr) {
      table->distinct[a] = std::make_unique<GroupKeyTable>();
    }
    std::vector<uint32_t> dgids(sel.size());
    std::vector<uint8_t> dcreated(sel.size());
    HashTableStats dht;
    table->distinct[a]->FindOrCreate(dkeys, dhashes.data(), sel.size(),
                                     dgids.data(), dcreated.data(), &dht);
    stats->hash_table_lookups += dht.lookups;
    stats->hash_table_probe_steps += dht.probe_steps;
    std::vector<uint32_t> first;
    std::vector<uint32_t> first_gids;
    for (size_t j = 0; j < sel.size(); ++j) {
      if (dcreated[j] == 0) continue;
      first.push_back(sel[j]);
      first_gids.push_back(gids[sel[j]]);
    }
    ApplyAggregate(a, arg.Gather(first), first_gids.data(), first.size(),
                   table);
  }
}

void PhysicalHashAggregate::ApplyAggregate(size_t a, const ColumnVector& arg,
                                           const uint32_t* gids, size_t rows,
                                           AggTable* table) const {
  // One type-dispatched loop per aggregate, never materializing Values.
  // Rows apply in order, so floating-point sums and MIN/MAX tie-breaks
  // depend only on which rows a table sees, in which order.
  const size_t num_aggs = aggregates_.size();
  AggState* states = table->states.data();
  const AggregateSpec& spec = aggregates_[a];
  if (spec.func == AggFunc::kCountStar) {
    for (size_t r = 0; r < rows; ++r) {
      states[gids[r] * num_aggs + a].count++;
    }
    return;
  }
  const uint8_t* valid = arg.validity_data();
  switch (spec.func) {
    case AggFunc::kCount:
      for (size_t r = 0; r < rows; ++r) {
        if (valid[r] == 0) continue;
        AggState& st = states[gids[r] * num_aggs + a];
        st.has_value = true;
        st.count++;
      }
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (arg.type() == TypeId::kDouble) {
        const double* data = arg.double_data();
        for (size_t r = 0; r < rows; ++r) {
          if (valid[r] == 0) continue;
          AggState& st = states[gids[r] * num_aggs + a];
          st.has_value = true;
          st.count++;
          st.sum_d += data[r];
        }
      } else {
        const int64_t* data = arg.int64_data();
        for (size_t r = 0; r < rows; ++r) {
          if (valid[r] == 0) continue;
          AggState& st = states[gids[r] * num_aggs + a];
          st.has_value = true;
          st.count++;
          st.sum_i += data[r];
          st.sum_d += static_cast<double>(data[r]);
        }
      }
      break;
    case AggFunc::kStddev:
    case AggFunc::kVariance:
      for (size_t r = 0; r < rows; ++r) {
        if (valid[r] == 0) continue;
        AggState& st = states[gids[r] * num_aggs + a];
        double v = arg.GetNumeric(r);
        st.has_value = true;
        st.count++;
        st.sum_d += v;
        st.sum_sq += v * v;
      }
      break;
    case AggFunc::kMin:
    case AggFunc::kMax: {
      const bool is_min = spec.func == AggFunc::kMin;
      if (arg.type() == TypeId::kString) {
        std::vector<std::string>& ms = table->minmax_strings[a];
        for (size_t r = 0; r < rows; ++r) {
          if (valid[r] == 0) continue;
          AggState& st = states[gids[r] * num_aggs + a];
          st.has_value = true;
          const std::string& s = arg.GetString(r);
          std::string& cur = ms[gids[r]];
          if (st.count == 0 || (is_min ? s < cur : s > cur)) cur = s;
          st.count++;
        }
      } else if (arg.type() == TypeId::kDouble) {
        const double* data = arg.double_data();
        for (size_t r = 0; r < rows; ++r) {
          if (valid[r] == 0) continue;
          AggState& st = states[gids[r] * num_aggs + a];
          st.has_value = true;
          double v = data[r];
          if (st.count == 0 || (is_min ? v < st.minmax_d : v > st.minmax_d)) {
            st.minmax_d = v;
          }
          st.count++;
        }
      } else {
        const int64_t* data = arg.int64_data();
        for (size_t r = 0; r < rows; ++r) {
          if (valid[r] == 0) continue;
          AggState& st = states[gids[r] * num_aggs + a];
          st.has_value = true;
          int64_t v = data[r];
          if (st.count == 0 || (is_min ? v < st.minmax_i : v > st.minmax_i)) {
            st.minmax_i = v;
          }
          st.count++;
        }
      }
      break;
    }
    case AggFunc::kCountStar:
      break;
  }
}

void PhysicalHashAggregate::GrowStates(AggTable* table) const {
  const size_t num_aggs = aggregates_.size();
  const size_t groups = table->keys.group_count();
  table->states.resize(groups * num_aggs);
  table->minmax_strings.resize(num_aggs);
  table->distinct.resize(num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    if (StringMinMax(aggregates_[a])) table->minmax_strings[a].resize(groups);
  }
}

void PhysicalHashAggregate::MergePartial(AggTable* src,
                                         const std::vector<uint32_t>* sel,
                                         AggTable* dst,
                                         std::vector<uint8_t>* created,
                                         ExecStats* stats) const {
  const size_t n = sel != nullptr ? sel->size() : src->keys.group_count();
  if (sel == nullptr && dst->keys.group_count() == 0) {
    // Folding into an empty table copies every state: take `src` whole.
    *dst = std::move(*src);
    if (created != nullptr) created->assign(n, 1);
    return;
  }
  // The partial's stored key columns and (already salted) group hashes
  // feed straight back through FindOrCreate — no re-encoding.
  const std::vector<ColumnVector>* keys = &src->keys.keys();
  const uint64_t* hashes = src->keys.group_hashes().data();
  std::vector<ColumnVector> sel_keys;
  std::vector<uint64_t> sel_hashes;
  if (sel != nullptr) {
    for (const ColumnVector& key : *keys) sel_keys.push_back(key.Gather(*sel));
    for (uint32_t g : *sel) sel_hashes.push_back(hashes[g]);
    keys = &sel_keys;
    hashes = sel_hashes.data();
  }
  std::vector<uint32_t> gids(n);
  std::vector<uint8_t> fresh(n);
  HashTableStats ht;
  dst->keys.FindOrCreate(*keys, hashes, n, gids.data(), fresh.data(), &ht);
  stats->hash_table_lookups += ht.lookups;
  stats->hash_table_probe_steps += ht.probe_steps;
  GrowStates(dst);

  const size_t num_aggs = aggregates_.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t sg = sel != nullptr ? (*sel)[i] : i;
    const size_t dg = gids[i];
    for (size_t a = 0; a < num_aggs; ++a) {
      const AggState& s = src->states[sg * num_aggs + a];
      AggState& d = dst->states[dg * num_aggs + a];
      const AggregateSpec& spec = aggregates_[a];
      if (fresh[i] != 0) {
        d = s;
        if (StringMinMax(spec)) {
          dst->minmax_strings[a][dg] = std::move(src->minmax_strings[a][sg]);
        }
        continue;
      }
      // MIN/MAX compare before the counts fold in (count == 0 means "no
      // value yet" on both sides of the comparison).
      if ((spec.func == AggFunc::kMin || spec.func == AggFunc::kMax) &&
          s.count != 0) {
        const bool is_min = spec.func == AggFunc::kMin;
        if (StringMinMax(spec)) {
          std::string& sv = src->minmax_strings[a][sg];
          std::string& dv = dst->minmax_strings[a][dg];
          if (d.count == 0 || (is_min ? sv < dv : sv > dv)) dv = std::move(sv);
        } else if (spec.result_type == TypeId::kDouble) {
          if (d.count == 0 ||
              (is_min ? s.minmax_d < d.minmax_d : s.minmax_d > d.minmax_d)) {
            d.minmax_d = s.minmax_d;
          }
        } else if (d.count == 0 || (is_min ? s.minmax_i < d.minmax_i
                                           : s.minmax_i > d.minmax_i)) {
          d.minmax_i = s.minmax_i;
        }
      }
      d.count += s.count;
      d.sum_d += s.sum_d;
      d.sum_sq += s.sum_sq;
      d.sum_i += s.sum_i;
      d.has_value = d.has_value || s.has_value;
    }
  }
  if (created != nullptr) *created = std::move(fresh);
}

void PhysicalHashAggregate::FinalizeInto(const AggTable& table, Chunk* out,
                                         size_t gid) const {
  size_t col = 0;
  const std::vector<ColumnVector>& key_cols = table.keys.keys();
  for (const ColumnVector& key : key_cols) {
    out->column(col++).AppendFrom(key, gid);
  }
  size_t num_aggs = aggregates_.size();
  for (size_t a = 0; a < num_aggs; ++a) {
    const AggregateSpec& spec = aggregates_[a];
    const AggState& state = table.states[gid * num_aggs + a];
    ColumnVector& target = out->column(col++);
    switch (spec.func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        target.AppendInt64(state.count);
        break;
      case AggFunc::kSum:
        if (!state.has_value) {
          target.AppendNull();
        } else if (spec.result_type == TypeId::kDouble) {
          target.AppendDouble(state.sum_d);
        } else {
          target.AppendInt64(state.sum_i);
        }
        break;
      case AggFunc::kAvg:
        if (!state.has_value) {
          target.AppendNull();
        } else {
          target.AppendDouble(state.sum_d /
                              static_cast<double>(state.count));
        }
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        if (!state.has_value) {
          target.AppendNull();
        } else if (spec.result_type == TypeId::kString) {
          target.AppendString(table.minmax_strings[a][gid]);
        } else if (spec.result_type == TypeId::kDouble) {
          target.AppendDouble(state.minmax_d);
        } else {
          target.AppendInt64(state.minmax_i);
        }
        break;
      case AggFunc::kStddev:
      case AggFunc::kVariance: {
        if (state.count < 2) {
          target.AppendNull();
          break;
        }
        double n = static_cast<double>(state.count);
        double mean = state.sum_d / n;
        double variance =
            std::max(0.0, (state.sum_sq - n * mean * mean) / (n - 1.0));
        target.AppendDouble(spec.func == AggFunc::kVariance
                                ? variance
                                : std::sqrt(variance));
        break;
      }
    }
  }
}

Status PhysicalHashAggregate::AccumulateSpill(const Chunk& input) {
  {
    AggInput in;
    AGORA_RETURN_IF_ERROR(EvaluateInput(input, &in));
    const size_t rows = in.rows;
    context_->stats.rows_aggregated += static_cast<int64_t>(rows);
    // A group always lands in the same partition, so each partition sees
    // its groups' rows in input order.
    const size_t num_parts = parts_.size();
    std::vector<std::vector<uint32_t>> psel(num_parts);
    for (size_t r = 0; r < rows; ++r) {
      psel[in.hashes[r] % num_parts].push_back(static_cast<uint32_t>(r));
    }
    for (size_t p = 0; p < num_parts; ++p) {
      const std::vector<uint32_t>& sel = psel[p];
      if (sel.empty()) continue;
      std::vector<int64_t> order(sel.size());
      for (size_t i = 0; i < sel.size(); ++i) order[i] = rows_seen_ + sel[i];
      AggInput sub;
      if (sel.size() == rows) {
        sub = std::move(in);  // the whole chunk: no gather
      } else {
        sub.rows = sel.size();
        for (const ColumnVector& key : in.keys) {
          sub.keys.push_back(key.Gather(sel));
        }
        for (size_t a = 0; a < aggregates_.size(); ++a) {
          sub.args.push_back(aggregates_[a].arg != nullptr
                                 ? in.args[a].Gather(sel)
                                 : ColumnVector());
        }
        for (uint32_t r : sel) sub.hashes.push_back(in.hashes[r]);
      }
      AggPartition& part = parts_[p];
      if (!part.spilled) {
        AccumulateRun(sub, order.data(), &part);
        continue;
      }
      // A spilled partition logs the evaluated rows: [keys..., args...,
      // hash, order, run].
      Chunk rec;
      for (ColumnVector& key : sub.keys) rec.AddColumn(std::move(key));
      for (size_t a = 0; a < aggregates_.size(); ++a) {
        if (aggregates_[a].arg != nullptr) {
          rec.AddColumn(std::move(sub.args[a]));
        }
      }
      ColumnVector hcol(TypeId::kInt64);
      ColumnVector ocol(TypeId::kInt64);
      ColumnVector rcol(TypeId::kInt64);
      for (size_t i = 0; i < sel.size(); ++i) {
        hcol.AppendInt64(static_cast<int64_t>(sub.hashes[i]));
        ocol.AppendInt64(order[i]);
        rcol.AppendInt64(run_);
      }
      rec.AddColumn(std::move(hcol));
      rec.AddColumn(std::move(ocol));
      rec.AddColumn(std::move(rcol));
      AGORA_RETURN_IF_ERROR(
          SpillWriteChunk(part.file.get(), rec, &context_->stats));
    }
    rows_seen_ += static_cast<int64_t>(rows);
  }
  // Shed after every chunk: a run can be a whole morsel, or the whole
  // input when it carries no morsel index.
  while (context_->memory->over_budget()) {
    bool resident = false;
    for (const AggPartition& part : parts_) {
      resident = resident || (!part.spilled &&
                              part.table.keys.group_count() +
                                      part.run.keys.group_count() >
                                  0);
    }
    if (!resident) break;  // nothing to shed; reload checks decide
    AGORA_RETURN_IF_ERROR(SpillAggVictim());
  }
  return Status::OK();
}

void PhysicalHashAggregate::AccumulateRun(const AggInput& in,
                                          const int64_t* order,
                                          AggPartition* part) {
  AccumulateInput(in, &part->run, &context_->stats);
  const std::vector<uint8_t>& created = part->run.created_scratch;
  for (size_t i = 0; i < in.rows; ++i) {
    if (created[i] != 0) part->run_order.push_back(order[i]);
  }
}

void PhysicalHashAggregate::FoldRun(AggPartition* part) {
  if (part->run.keys.group_count() == 0) return;
  std::vector<uint8_t> created;
  MergePartial(&part->run, nullptr, &part->table, &created, &context_->stats);
  for (size_t i = 0; i < created.size(); ++i) {
    if (created[i] != 0) part->order.push_back(part->run_order[i]);
  }
  part->run = AggTable{};
  part->run_order.clear();
}

Status PhysicalHashAggregate::WriteGroups(SpillFile* file,
                                          const AggTable& table,
                                          const std::vector<int64_t>& order) {
  ExecStats* stats = &context_->stats;
  const size_t n = table.keys.group_count();
  const size_t num_aggs = aggregates_.size();
  Chunk keys;
  for (const ColumnVector& key : table.keys.keys()) keys.AddColumn(key);
  ColumnVector hcol(TypeId::kInt64);
  ColumnVector ocol(TypeId::kInt64);
  for (size_t g = 0; g < n; ++g) {
    hcol.AppendInt64(static_cast<int64_t>(table.keys.group_hashes()[g]));
    ocol.AppendInt64(order[g]);
  }
  keys.AddColumn(std::move(hcol));
  keys.AddColumn(std::move(ocol));
  AGORA_RETURN_IF_ERROR(SpillWriteChunk(file, keys, stats));
  AGORA_RETURN_IF_ERROR(SpillWriteBlob(
      file, table.states.data(), n * num_aggs * sizeof(AggState), stats));

  Chunk strings;
  for (size_t a = 0; a < num_aggs; ++a) {
    if (!StringMinMax(aggregates_[a])) continue;
    ColumnVector col(TypeId::kString);
    for (size_t g = 0; g < n; ++g) col.AppendString(table.minmax_strings[a][g]);
    strings.AddColumn(std::move(col));
  }
  strings.SetExplicitRowCount(n);
  return SpillWriteChunk(file, strings, stats);
}

Status PhysicalHashAggregate::ReadGroups(SpillFile* file, AggTable* table,
                                         std::vector<int64_t>* order) {
  ExecStats* stats = &context_->stats;
  Chunk keys;
  std::string blob;
  Chunk strings;
  bool eof = false;
  AGORA_RETURN_IF_ERROR(SpillReadChunk(file, &keys, &eof, stats));
  if (!eof) AGORA_RETURN_IF_ERROR(SpillReadBlob(file, &blob, stats));
  if (!eof) AGORA_RETURN_IF_ERROR(SpillReadChunk(file, &strings, &eof, stats));
  if (eof) return Status::IoError("spill file missing group record");
  const size_t n = keys.num_rows();
  if (n == 0) return Status::OK();  // an empty table has no key columns
  const size_t num_keys = group_by_.size();
  // A fresh table assigns the record's distinct keys identity group ids.
  std::vector<ColumnVector> kcols;
  for (size_t k = 0; k < num_keys; ++k) {
    kcols.push_back(std::move(keys.column(k)));
  }
  const int64_t* h = keys.column(num_keys).int64_data();
  std::vector<uint64_t> hashes(h, h + n);
  std::vector<uint32_t> gids(n);
  std::vector<uint8_t> created(n);
  HashTableStats ht;
  table->keys.FindOrCreate(kcols, hashes.data(), n, gids.data(),
                           created.data(), &ht);
  const int64_t* o = keys.column(num_keys + 1).int64_data();
  order->assign(o, o + n);
  GrowStates(table);

  if (blob.size() != table->states.size() * sizeof(AggState)) {
    return Status::IoError("spill record accumulator size mismatch");
  }
  std::memcpy(table->states.data(), blob.data(), blob.size());
  size_t c = 0;
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    if (!StringMinMax(aggregates_[a])) continue;
    const ColumnVector& col = strings.column(c++);
    for (size_t g = 0; g < n; ++g) {
      table->minmax_strings[a][g] = col.GetString(g);
    }
  }
  return Status::OK();
}

Status PhysicalHashAggregate::SpillAggVictim() {
  size_t victim = SIZE_MAX;
  size_t best = 0;
  for (size_t p = 0; p < parts_.size(); ++p) {
    const AggPartition& part = parts_[p];
    size_t n = part.table.keys.group_count() + part.run.keys.group_count();
    if (!part.spilled && n > best) {
      victim = p;
      best = n;
    }
  }
  AGORA_CHECK(victim != SIZE_MAX);
  AggPartition& part = parts_[victim];
  AGORA_ASSIGN_OR_RETURN(part.file, context_->spill->Create());
  AGORA_RETURN_IF_ERROR(WriteGroups(part.file.get(), part.table, part.order));
  AGORA_RETURN_IF_ERROR(
      WriteGroups(part.file.get(), part.run, part.run_order));
  part.spill_run = run_;
  part.table = AggTable{};
  part.run = AggTable{};
  std::vector<int64_t>().swap(part.order);
  std::vector<int64_t>().swap(part.run_order);
  part.spilled = true;
  context_->stats.spill_partitions++;
  return Status::OK();
}

Status PhysicalHashAggregate::ReloadPartition(AggPartition* part) {
  // Restore the table and the unfinished run partial as they stood at the
  // spill, then replay the logged rows: a row continues its run's partial
  // exactly where the in-memory path would have, and a run's partial
  // folds in when the next run's rows begin.
  AGORA_RETURN_IF_ERROR(part->file->Rewind());
  AGORA_RETURN_IF_ERROR(ReadGroups(part->file.get(), &part->table,
                                   &part->order));
  AGORA_RETURN_IF_ERROR(ReadGroups(part->file.get(), &part->run,
                                   &part->run_order));
  int64_t run = part->spill_run;
  for (;;) {
    Chunk rec;
    bool eof = false;
    AGORA_RETURN_IF_ERROR(
        SpillReadChunk(part->file.get(), &rec, &eof, &context_->stats));
    if (eof) break;
    AggInput in;
    in.rows = rec.num_rows();
    size_t c = 0;
    for (size_t k = 0; k < group_by_.size(); ++k) {
      in.keys.push_back(std::move(rec.column(c++)));
    }
    for (const AggregateSpec& spec : aggregates_) {
      in.args.push_back(spec.arg != nullptr ? std::move(rec.column(c++))
                                            : ColumnVector());
    }
    const int64_t* h = rec.column(c).int64_data();
    in.hashes.assign(h, h + in.rows);
    const int64_t tag = rec.column(c + 2).int64_data()[0];
    if (tag != run) {
      FoldRun(part);
      run = tag;
    }
    AccumulateRun(in, rec.column(c + 1).int64_data(), part);
  }
  FoldRun(part);
  context_->spill->Recycle(std::move(part->file));
  // A partition that cannot fit alone even after spilling is the scheme's
  // graceful-failure point.
  return context_->CheckMemoryBudget("HashAggregate::spill-reload");
}

Status PhysicalHashAggregate::FinalizePartition(AggPartition* part,
                                                bool to_disk) {
  const AggTable& table = part->table;
  size_t n = table.keys.group_count();
  context_->stats.hash_table_entries += static_cast<int64_t>(n);
  context_->stats.hash_table_slots +=
      static_cast<int64_t>(table.keys.slot_count());
  if (to_disk) {
    AGORA_ASSIGN_OR_RETURN(part->out_file, context_->spill->Create());
  }
  // Output is batched far below kChunkSize: the k-way merge later holds
  // one loaded batch per disk stream — and frees a memory stream's batch
  // only once fully consumed — *while the result chunk is accumulating*,
  // so the batch size is the merge's memory floor either way.
  const size_t batch = std::min<size_t>(kChunkSize, 256);
  for (size_t start = 0; start < n; start += batch) {
    size_t count = std::min(batch, n - start);
    Chunk out(schema_);
    ColumnVector idx(TypeId::kInt64);
    for (size_t g = start; g < start + count; ++g) {
      FinalizeInto(table, &out, g);
      idx.AppendInt64(part->order[g]);
    }
    out.AddColumn(std::move(idx));
    if (to_disk) {
      AGORA_RETURN_IF_ERROR(
          SpillWriteChunk(part->out_file.get(), out, &context_->stats));
    } else {
      part->finalized.push_back(std::move(out));
    }
  }
  part->table = AggTable{};
  std::vector<int64_t>().swap(part->order);
  return Status::OK();
}

Status PhysicalHashAggregate::FinishSpill() {
  // Finalize resident partitions first (frees their tables), then reload
  // spilled partitions one at a time into the freed headroom. Once any
  // partition spilled, resident output spools to disk too: keeping it in
  // memory would shrink the headroom the reloads were spilled to create.
  bool any_spilled = false;
  for (const AggPartition& part : parts_) {
    any_spilled = any_spilled || part.spilled;
  }
  for (AggPartition& part : parts_) {
    if (!part.spilled && part.table.keys.group_count() > 0) {
      AGORA_RETURN_IF_ERROR(FinalizePartition(&part, any_spilled));
    }
  }
  for (AggPartition& part : parts_) {
    if (!part.spilled) continue;
    AGORA_RETURN_IF_ERROR(ReloadPartition(&part));
    AGORA_RETURN_IF_ERROR(FinalizePartition(&part, /*to_disk=*/true));
  }

  // Arm the first-appearance merge: one stream per non-empty partition.
  for (AggPartition& part : parts_) {
    if (part.out_file != nullptr) {
      AGORA_RETURN_IF_ERROR(
          merge_.AddFile(part.out_file.get(), &context_->stats));
    } else if (!part.finalized.empty()) {
      AGORA_RETURN_IF_ERROR(
          merge_.AddChunks(std::move(part.finalized), &context_->stats));
    }
  }
  return Status::OK();
}

Status PhysicalHashAggregate::NextImpl(Chunk* chunk, bool* done) {
  Chunk out(schema_);
  if (spill_mode_) {
    AGORA_RETURN_IF_ERROR(merge_.Next(INT64_MAX, &out, &context_->stats));
    *done = merge_.done();
    if (*done) {
      merge_.Clear();
      for (AggPartition& part : parts_) {
        if (part.out_file != nullptr) {
          context_->spill->Recycle(std::move(part.out_file));
        }
      }
    }
  } else {
    while (next_group_ < num_groups_ && out.num_rows() < kChunkSize) {
      FinalizeInto(groups_, &out, next_group_++);
    }
    *done = next_group_ >= num_groups_;
  }
  context_->stats.bytes_materialized += static_cast<int64_t>(out.MemoryBytes());
  *chunk = std::move(out);
  return Status::OK();
}

}  // namespace agora
