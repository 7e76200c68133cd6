#ifndef AGORA_EXEC_JOIN_H_
#define AGORA_EXEC_JOIN_H_

#include <memory>
#include <utility>
#include <vector>

#include "exec/hash_table.h"
#include "exec/physical_op.h"
#include "exec/spill_util.h"
#include "expr/expr.h"
#include "storage/spill.h"

namespace agora {

enum class PhysicalJoinKind { kInner, kLeftOuter, kCross };

/// Hash join: materializes and hashes the RIGHT (build) child, then
/// streams the LEFT (probe) child. Output schema is left ⊕ right. NULL
/// keys never match; kLeftOuter emits unmatched probe rows padded with
/// NULLs.
///
/// Keys are hashed column-at-a-time into a JoinHashTable whose build-side
/// rows are hash-partitioned (`hash % P`); with a worker pool available
/// the P partition directories are filled by parallel workers, each
/// owning its partition outright. Chains iterate in ascending build-row
/// order, so probe output is identical for every partition and worker
/// count. One probe kernel serves every path: the pull loop and the
/// morsel pipeline's workers (both through Execute()), and both passes of
/// the budgeted path. A build-side Bloom filter rejects most matchless
/// probe rows before they touch the slot directory. Build and probe book
/// their self time into separate phase slots (EXPLAIN ANALYZE shows
/// HashJoin::build/::probe). Output chunks carry the morsel index of the
/// probe rows they came from (Chunk::morsel()).
class PhysicalHashJoin : public PhysicalChunkTransform {
 public:
  /// `left_keys[i]` (over the left schema) must equal `right_keys[i]`
  /// (over the right schema) for a match; the planner guarantees matching
  /// key types. `residual` (over left ⊕ right) further filters matches.
  /// The left child is the streamed probe input.
  PhysicalHashJoin(PhysicalOpPtr left, PhysicalOpPtr right,
                   std::vector<ExprPtr> left_keys,
                   std::vector<ExprPtr> right_keys, ExprPtr residual,
                   PhysicalJoinKind kind, ExecContext* context);

  Status OpenImpl() override;
  Status NextImpl(Chunk* chunk, bool* done) override;
  std::string name() const override { return "HashJoin"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {input_.get(), right_.get()};
  }

  /// Joins one probe chunk against the built table.
  Status Execute(const Chunk& probe, Chunk* out,
                 ExecStats* stats) const override;

  /// True when this join runs the budgeted (spill-capable) path. Decided
  /// at construction from the budget configuration alone — never from the
  /// worker count — so plan shape and pipeline eligibility stay identical
  /// at every thread count.
  bool spill_mode() const { return spill_mode_; }

  std::vector<OperatorPhase> phases() const override {
    return {{"build", build_phase_id_}, {"probe", probe_phase_id_}};
  }

 private:
  /// Evaluates the build keys over `build_data_`, hashes them, and builds
  /// `table_` (in parallel when a pool is available).
  Status BuildTable();
  /// Adds the final table's entries and slots to the query stats (once per
  /// table, not per shed-and-rebuild round).
  void CountTable();
  /// Frees the build rows, keys and table.
  void ReleaseBuild();

  /// The probe kernel: hash, Bloom check, chain walk, key verification,
  /// survivor and outer-join pad emission, residual filter. Columns
  /// [0, lcols) of `probe` are the probe row. With `row_idx`, the output
  /// gets a trailing int64 column holding row_idx[r] for each emitted probe
  /// row r. With `divert`, rows whose hash falls in a spilled partition
  /// (parts_[h % P]) go to (*divert)[h % P] and emit nothing here.
  Status Probe(const Chunk& probe, size_t lcols, const int64_t* row_idx,
               std::vector<std::vector<uint32_t>>* divert, Chunk* out,
               ExecStats* stats) const;

  // --- budgeted (spill-capable) execution -------------------------------
  //
  // Build rows are partitioned by `hash % P`; when the query tracker
  // crosses its budget the largest resident partition is written to a
  // temp file. The resident partitions then form one build table. Probe
  // rows of spilled partitions divert to per-partition files tagged with
  // their global probe-row index; everything else joins immediately into
  // a spooled "immediate" stream. Each spilled partition is then reloaded
  // alone, probed from its file, and its output spooled. NextImpl k-way-
  // merges the streams by probe-row index, which restores exactly the
  // order the in-memory path emits — output is byte-identical regardless
  // of which partitions spilled. See DESIGN.md.

  /// One hash partition of the build side. While resident, rows sit in
  /// `buffered` chunks and then in rows [base, base + rows) of
  /// `build_data_`; once spilled they live in `build_file`.
  struct SpillPartition {
    std::vector<Chunk> buffered;
    size_t rows = 0;  // resident row count (0 once spilled)
    size_t base = 0;  // offset into the resident concatenation
    bool spilled = false;
    std::unique_ptr<SpillFile> build_file;
    std::unique_ptr<SpillFile> probe_file;  // diverted probe rows (+index)
    std::unique_ptr<SpillFile> out_file;    // deferred join output (+index)
  };

  Status OpenSpill();
  /// Largest resident partition, or SIZE_MAX when none remains.
  size_t PickVictim() const;
  /// Drain-phase shedding: flushes the victim's buffered chunks to disk.
  Status SpillBufferedVictim();
  /// Concatenates resident partitions into `build_data_`, sheds further
  /// victims while over budget, and builds the table over the rest.
  Status PrepareResident();
  Status SpillResidentVictim(size_t victim);
  void ReconcatResident();
  Status DrainProbeToStreams();
  Status ProcessDeferredPartition(SpillPartition* part);
  Status EmitMerged(Chunk* chunk, bool* done);

  bool spill_mode_ = false;
  bool any_spilled_ = false;
  std::vector<SpillPartition> parts_;
  std::unique_ptr<SpillFile> immediate_file_;
  SpillMerge merge_;
  /// (probe-row index, morsel) at each change of the probe chunks' morsel
  /// index; the merge cuts its output there and tags it.
  std::vector<std::pair<int64_t, size_t>> morsel_starts_;

  PhysicalOpPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  ExprPtr residual_;
  PhysicalJoinKind kind_;
  int build_phase_id_ = -1;
  int probe_phase_id_ = -1;

  // The rows the probe joins against: the whole right side in memory, the
  // resident partitions under a budget, or one reloaded spilled partition.
  Chunk build_data_;
  std::vector<ColumnVector> build_keys_;  // evaluated right key columns
  std::vector<uint64_t> build_hashes_;    // per-row combined key hash
  std::vector<uint8_t> build_valid_;      // 0 = some key was NULL
  std::unique_ptr<JoinHashTable> table_;
};

/// Nested-loop join: materializes the right child and pairs every probe
/// row with every build row, evaluating `condition` (if any). Used for
/// cross joins and non-equi conditions — and as the deliberately naive
/// baseline when the optimizer is disabled (experiment E4).
class PhysicalNestedLoopJoin : public PhysicalOperator {
 public:
  PhysicalNestedLoopJoin(PhysicalOpPtr left, PhysicalOpPtr right,
                         ExprPtr condition, PhysicalJoinKind kind,
                         ExecContext* context);

  Status OpenImpl() override;
  Status NextImpl(Chunk* chunk, bool* done) override;
  std::string name() const override { return "NestedLoopJoin"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  ExprPtr condition_;
  PhysicalJoinKind kind_;

  Chunk build_data_;
  bool probe_done_ = false;
};

}  // namespace agora

#endif  // AGORA_EXEC_JOIN_H_
