#ifndef AGORA_EXEC_PARALLEL_H_
#define AGORA_EXEC_PARALLEL_H_

#include <functional>
#include <vector>

#include "exec/physical_op.h"
#include "exec/scan.h"

namespace agora {

/// Morsel-driven parallelism (Leis et al., SIGMOD'14 style, adapted to
/// this engine's pull operators).
///
/// A *morsel pipeline* is the longest chain of per-chunk transforms above
/// a PhysicalScan leaf:
///
///     Scan (→ Filter | Project | HashJoin-probe)*
///
/// Workers claim ~64K-row morsels from the scan's atomic cursor and push
/// each morsel through the whole chain, so one cache-resident batch flows
/// scan → filter → probe without synchronization. Pipeline *breakers*
/// (aggregate, sort, distinct, the join build, the root collector) sit
/// above and either consume morsel results themselves
/// (PhysicalHashAggregate, CollectAll) or read from a PhysicalGather
/// exchange.
///
/// Determinism contract: whether a plan runs the morsel path depends only
/// on plan shape (TryBuild), never on the worker count or the table size.
/// Serial execution is the same path run by one worker. All merges happen
/// in morsel-index order. The pull and budgeted paths keep the same
/// order: chunks carry their scan morsel's index (Chunk::morsel()), and
/// the hash aggregate cuts its partials where it changes, so every path
/// folds the same per-morsel partials in the same order. Together this
/// makes query results (including floating-point aggregate rounding)
/// byte-identical at every thread count and memory budget, and ExecStats
/// counters byte-identical at every thread count.
class MorselPipeline {
 public:
  /// Recognizes the pipeline shape rooted at `op` without opening
  /// anything. Returns false when the subtree contains a non-pipeline
  /// operator (index scan, sort, union, nested-loop join, a budgeted
  /// hash join, ...). The one test for the morsel path.
  static bool TryBuild(PhysicalOperator* op, MorselPipeline* out);

  PhysicalScan* source() const { return source_; }

  /// Applies every transform to one source chunk, each under its own
  /// span on `stats`. `*out` may come back empty (fully filtered / no
  /// join match). Thread-safe after the member operators were opened.
  Status Apply(Chunk&& chunk, Chunk* out, ExecStats* stats) const;

 private:
  PhysicalScan* source_ = nullptr;
  std::vector<const PhysicalChunkTransform*> transforms_;  // source first
};

/// Runs `pipeline` to completion with min(`context->num_workers`,
/// morsel count) tasks on `context->pool` (inline on the calling thread
/// when that is one task or the pool is null). Every scanned chunk first
/// passes the query's deadline/cancel and memory-budget checks (reported
/// as `who`); every non-empty result is handed to
/// `sink(worker, morsel, chunk)`. A given morsel is processed by exactly
/// one worker, so sinks may write to per-morsel slots without locking.
/// Prepares the context's per-worker stat slots before the section and
/// merges them (exactly) at the barrier. Returns the first worker error.
Status DriveMorselPipeline(
    const MorselPipeline& pipeline, ExecContext* context, const char* who,
    const std::function<Status(int, const Morsel&, Chunk&&)>& sink);

/// Opens `op` and drains it into one chunk: through the morsel pipeline
/// when TryBuild accepts `op` (chunks in morsel order, which is the pull
/// order), by pulling Next() otherwise, then one column-wise
/// concatenation. The collector behind Database::Execute, Sort and the
/// join builds; the result is byte-identical at every worker count.
Result<Chunk> CollectAll(PhysicalOperator* op);

/// Exchange operator: Open() drives the child morsel pipeline with the
/// worker pool and buffers the output; Next() then streams the chunks in
/// morsel order. The physical planner inserts it, where TryBuild accepts
/// the child, below order-insensitive breakers that pull their input
/// (TopK, Distinct, DISTINCT aggregates), so EXPLAIN ANALYZE shows a
/// Gather exactly where one of them read a morsel pipeline.
class PhysicalGather : public PhysicalOperator {
 public:
  PhysicalGather(PhysicalOpPtr child, ExecContext* context);

  Status OpenImpl() override;
  Status NextImpl(Chunk* chunk, bool* done) override;
  std::string name() const override { return "Gather"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 private:
  PhysicalOpPtr child_;
  std::vector<Chunk> chunks_;  // morsel order; only non-empty chunks
  size_t next_chunk_ = 0;
};

}  // namespace agora

#endif  // AGORA_EXEC_PARALLEL_H_
