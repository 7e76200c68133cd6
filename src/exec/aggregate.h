#ifndef AGORA_EXEC_AGGREGATE_H_
#define AGORA_EXEC_AGGREGATE_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/hash_table.h"
#include "exec/physical_op.h"
#include "exec/spill_util.h"
#include "expr/expr.h"
#include "plan/logical_plan.h"
#include "storage/spill.h"

namespace agora {

/// Blocking hash aggregation. Consumes the whole child in Open(), then
/// streams result groups. Output schema: [group keys..., aggregates...].
/// With no group keys, emits exactly one row (SQL scalar-aggregate rule).
///
/// Grouping runs through a GroupKeyTable (exec/hash_table.h): keys are
/// hashed and verified column-at-a-time and live columnar inside the
/// table, so the per-row work is a vectorized lookup plus fixed-width
/// accumulator updates — no per-row key strings, Values, or map nodes.
/// Accumulators are a flat group-major AggState array; only string
/// MIN/MAX keeps a side vector of strings.
///
/// Every path accumulates the same way: each scan morsel's rows go into
/// their own partial table (AccumulateInto), and the partials fold into
/// the result in morsel order (MergePartial). The morsel path (taken
/// whenever the child is a morsel pipeline) gets one partial per morsel
/// from its workers; the pull path (any other child) and the budgeted
/// path start a new partial whenever the input chunks' morsel index
/// (Chunk::morsel()) changes. That fixes both the group output order
/// (first appearance) and the floating-point addition tree, so results
/// are byte-identical at every worker count and memory budget. Input
/// without a morsel index is one run. DISTINCT aggregates cannot merge
/// partial dedup sets exactly, so they accumulate their whole input as
/// one run on the pull path (the planner parallelizes a pipeline input
/// through a Gather exchange instead); their
/// dedup runs over per-aggregate GroupKeyTables keyed on (group id,
/// argument).
class PhysicalHashAggregate : public PhysicalOperator {
 public:
  PhysicalHashAggregate(PhysicalOpPtr child, std::vector<ExprPtr> group_by,
                        std::vector<AggregateSpec> aggregates, Schema schema,
                        ExecContext* context);

  Status OpenImpl() override;
  Status NextImpl(Chunk* chunk, bool* done) override;
  std::string name() const override { return "HashAggregate"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 private:
  /// Fixed-width accumulator for one (group, aggregate) pair.
  struct AggState {
    int64_t count = 0;       // COUNT / AVG / STDDEV denominator
    double sum_d = 0;        // SUM/AVG accumulator (double path)
    double sum_sq = 0;       // STDDEV/VARIANCE accumulator
    int64_t sum_i = 0;       // SUM accumulator (int64 path)
    int64_t minmax_i = 0;    // running MIN/MAX (int-family args)
    double minmax_d = 0;     // running MIN/MAX (double args)
    bool has_value = false;  // any non-null input seen
  };

  /// One aggregation table: the key table plus group-major accumulators
  /// (`states[g * num_aggs + a]`). Partials, spill partitions and the
  /// result share this shape, so merging is a FindOrCreate over the
  /// partial's stored key columns.
  struct AggTable {
    GroupKeyTable keys;
    std::vector<AggState> states;
    /// Running MIN/MAX per group for string-typed aggregates (indexed
    /// [agg][group]; other aggregates stay empty).
    std::vector<std::vector<std::string>> minmax_strings;
    /// DISTINCT dedup tables keyed on (group id, argument value); only
    /// allocated for DISTINCT aggregates.
    std::vector<std::unique_ptr<GroupKeyTable>> distinct;
    // Per-row results of the last accumulated batch, reused across chunks.
    std::vector<uint32_t> gid_scratch;
    std::vector<uint8_t> created_scratch;
  };

  /// One batch of input rows, evaluated: group keys, aggregate arguments
  /// (an empty column where the aggregate takes none) and the salted
  /// group-key hashes (grouped aggregation only).
  struct AggInput {
    std::vector<ColumnVector> keys;
    std::vector<ColumnVector> args;
    std::vector<uint64_t> hashes;
    size_t rows = 0;
  };

  /// Evaluates the group keys and arguments of `input`.
  Status EvaluateInput(const Chunk& input, AggInput* in) const;
  /// Accumulates `in` into `table`, rows in order. Leaves each row's group
  /// id in `table->gid_scratch` and, for grouped aggregation, a 1 in
  /// `table->created_scratch` for each row that created its group.
  void AccumulateInput(const AggInput& in, AggTable* table,
                       ExecStats* stats) const;
  /// Evaluates and accumulates one chunk into `table`. Side-effect free
  /// apart from its out-params, so parallel workers can run it on
  /// disjoint tables concurrently.
  Status AccumulateInto(const Chunk& input, AggTable* table,
                        ExecStats* stats) const;
  /// The columnar kernel of aggregate `a`: applies rows [0, rows) of
  /// `arg` to `table` under group ids `gids`, in row order.
  void ApplyAggregate(size_t a, const ColumnVector& arg, const uint32_t* gids,
                      size_t rows, AggTable* table) const;
  /// Sizes `table`'s accumulators to its group count.
  void GrowStates(AggTable* table) const;
  /// Folds groups `sel` of `src` (every group when null), in that order,
  /// into `dst`: a group new to `dst` takes its state from `src` (string
  /// MIN/MAX values are moved out), an existing one merges it. `created`,
  /// when given, gets one flag per folded group: 1 when `dst` lacked it.
  void MergePartial(AggTable* src, const std::vector<uint32_t>* sel,
                    AggTable* dst, std::vector<uint8_t>* created,
                    ExecStats* stats) const;
  /// Ends the current run: folds its partial into the result (or, on the
  /// budgeted path, each resident partition's run partial into the
  /// partition) and resets it.
  void EndRun(AggTable* partial);
  void FinalizeInto(const AggTable& table, Chunk* out, size_t gid) const;

  // --- budgeted (spill-capable) execution -------------------------------
  //
  // Input rows are split by `group hash % P` into P partitions. A partition
  // accumulates the current run's rows into its own run partial, which
  // folds into the partition's table when the run ends — per group, the
  // additions of the in-memory path. Every group carries an order key: the
  // input row index that created it, so ascending order keys are
  // first-appearance order. After each input chunk, while the query
  // tracker is over its budget, the largest resident partition is written
  // to its file (its table, then its run partial) and freed; from then on
  // the partition's evaluated input rows go to the file, tagged with their
  // run. After the drain a spilled partition is rebuilt by restoring both
  // records and replaying the rows into run partials (AccumulateInput)
  // that fold in run order — each group sees the same row additions and
  // the same folds as in memory. Finalized partitions merge back by order
  // key (SpillMerge). See DESIGN.md "Memory governance".

  /// One group-hash partition of the aggregation state.
  struct AggPartition {
    AggTable table;
    std::vector<int64_t> order;      // order key of group g of `table`
    AggTable run;                    // the current run's partial
    std::vector<int64_t> run_order;  // order key of group g of `run`
    bool spilled = false;
    int64_t spill_run = 0;  // run whose partial the file holds
    std::unique_ptr<SpillFile> file;      // table, run partial, then rows
    std::unique_ptr<SpillFile> out_file;  // finalized groups (+order key)
    std::vector<Chunk> finalized;         // resident partitions
  };

  /// Routes one input chunk to the partitions and sheds while over budget.
  Status AccumulateSpill(const Chunk& input);
  /// Accumulates `in` into `part`'s run partial; `order[i]` becomes the
  /// order key of a group that row i creates.
  void AccumulateRun(const AggInput& in, const int64_t* order,
                     AggPartition* part);
  /// Folds `part`'s run partial into its table and resets it.
  void FoldRun(AggPartition* part);
  /// Writes every group of `table` to `file` as one record: a [keys...,
  /// hash, order] chunk, the raw AggState blob (raw bytes round-trip doubles
  /// bit-exactly), and a chunk of string MIN/MAX values.
  Status WriteGroups(SpillFile* file, const AggTable& table,
                     const std::vector<int64_t>& order);
  /// Reads one record written by WriteGroups into a fresh table.
  Status ReadGroups(SpillFile* file, AggTable* table,
                    std::vector<int64_t>* order);
  /// Writes the largest resident partition to disk and frees it.
  Status SpillAggVictim();
  /// Rebuilds a spilled partition from its records and rows.
  Status ReloadPartition(AggPartition* part);
  Status FinalizePartition(AggPartition* part, bool to_disk);
  Status FinishSpill();

  PhysicalOpPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggregateSpec> aggregates_;
  bool has_distinct_ = false;

  AggTable groups_;
  size_t num_groups_ = 0;
  size_t next_group_ = 0;

  bool spill_mode_ = false;
  std::vector<AggPartition> parts_;
  int64_t rows_seen_ = 0;  // input rows routed so far (order keys)
  int64_t run_ = 0;        // runs ended so far (spill row tags)
  SpillMerge merge_;
};

}  // namespace agora

#endif  // AGORA_EXEC_AGGREGATE_H_
