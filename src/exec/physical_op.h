#ifndef AGORA_EXEC_PHYSICAL_OP_H_
#define AGORA_EXEC_PHYSICAL_OP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/memory_tracker.h"
#include "common/metrics.h"
#include "common/result.h"
#include "storage/chunk.h"
#include "types/schema.h"

namespace agora {

class SpillManager;
class ThreadPool;

/// How an ExecStats counter merges across workers and how it leaves the
/// query in Database::RecordQueryMetrics (names documented in
/// docs/METRICS.md).
enum class ExecCounterKind {
  kSum,   // additive; registry counter `<name>_total`, added per query
  kPeak,  // high-water mark, merged by max; registry gauge `<name>`
};

/// Every ExecStats counter, declared once as X(field, kind). The list
/// generates the struct fields and the kExecCounters table that Merge,
/// ToString, the registry export and the tests iterate. List order is
/// the EXPLAIN ANALYZE `totals:` order.
#define AGORA_EXEC_COUNTERS(X)                                             \
  X(rows_scanned, kSum)                                                    \
  X(blocks_read, kSum)                                                     \
  X(blocks_skipped, kSum) /* zone-map pruning wins */                      \
  X(rows_joined, kSum)    /* join output rows */                           \
  X(probe_calls, kSum)    /* hash table probes */                          \
  X(rows_aggregated, kSum) /* aggregate input rows */                      \
  X(rows_sorted, kSum)                                                     \
  X(bytes_materialized, kSum)                                              \
  X(chunks_emitted, kSum)                                                  \
  /* Hybrid search (PhysicalHybridSearch). */                              \
  X(hybrid_filter_rows, kSum) /* rows the attribute predicate touched */   \
  X(vector_distances, kSum)   /* distance computations */                  \
  X(overfetch_retries, kSum)  /* post-filter fetch doublings */            \
  X(fusion_candidates, kSum)  /* docs in the final fused ranking */        \
  /* Vectorized hash tables (exec/hash_table.h). Slots and probe steps */  \
  /* depend on the partition count (= worker count on the join build), */  \
  /* so the determinism contract excludes them. */                         \
  X(hash_table_entries, kSum)                                              \
  X(hash_table_slots, kSum)                                                \
  X(hash_table_lookups, kSum)                                              \
  X(hash_table_probe_steps, kSum)                                          \
  X(bloom_checked_rows, kSum)  /* probe rows tested on the filter */       \
  X(bloom_filtered_rows, kSum) /* probe rows rejected pre-table */         \
  /* Expression engine (expr/expr.h ExprCounters). */                      \
  X(expr_rows_evaluated, kSum)    /* rows through non-leaf kernels */      \
  X(sel_vector_hits, kSum)        /* calls under a narrowed selection */   \
  X(filter_gathers_avoided, kSum) /* filter outputs reused, no gather */   \
  /* Memory governance (common/memory_tracker.h, storage/spill.h). */      \
  X(mem_bytes_reserved_peak, kPeak)                                        \
  X(spill_partitions, kSum)                                                \
  X(spill_bytes_written, kSum)                                             \
  X(spill_bytes_read, kSum)

/// Counters collected while a query runs. Also the basis of the
/// sustainability proxy in experiment E7: `JoulesProxy()` weighs data
/// movement and materialization, not just wall-clock time.
struct ExecStats {
#define AGORA_DECLARE_COUNTER(name, kind) int64_t name = 0;
  AGORA_EXEC_COUNTERS(AGORA_DECLARE_COUNTER)
#undef AGORA_DECLARE_COUNTER

  /// Per-operator self-time slots, indexed by PhysicalOperator::op_id().
  /// Additive like every other counter; per-worker copies merge exactly.
  std::vector<OpTiming> op_timings;

  /// Top of this stats block's open-span stack (see common/metrics.h).
  /// Transient: only non-null while an operator call is on the stack of
  /// the thread that owns this block; never set after execution ends.
  MetricSpan* active_span = nullptr;

  void Reset() { *this = ExecStats{}; }

  /// Folds another stats block into this one. Every counter but the
  /// peak is additive, so merging per-worker slots reproduces the serial
  /// totals exactly.
  void Merge(const ExecStats& other);

  /// Synthetic energy proxy (arbitrary units): weighted sum of bytes moved
  /// and per-row work. Tracks resource footprint independent of latency.
  double JoulesProxy() const {
    return 1e-9 * static_cast<double>(bytes_materialized) +
           2e-9 * static_cast<double>(rows_scanned + rows_joined +
                                      rows_aggregated + rows_sorted) +
           1e-9 * static_cast<double>(probe_calls);
  }

  std::string ToString() const;
};

/// One row per AGORA_EXEC_COUNTERS entry, in list order.
struct ExecCounter {
  const char* name;        // field name; also the gauge name of kPeak
  const char* total_name;  // `<name>_total`, the counter name otherwise
  ExecCounterKind kind;
  int64_t ExecStats::*field;
};

inline constexpr ExecCounter kExecCounters[] = {
#define AGORA_COUNTER_ROW(name, kind) \
  {#name, #name "_total", ExecCounterKind::kind, &ExecStats::name},
    AGORA_EXEC_COUNTERS(AGORA_COUNTER_ROW)
#undef AGORA_COUNTER_ROW
};

/// Per-query execution context shared by all operators of one plan.
///
/// The parallel fields configure morsel-driven execution (see
/// exec/parallel.h). Whether a plan runs the morsel path depends only on
/// its shape, never on `num_workers`: serial execution is the one-worker
/// run of the same path, so a query produces byte-identical results at
/// every worker count.
struct ExecContext {
  ExecStats stats;

  /// Worker pool for parallel sections; nullptr runs morsel loops inline
  /// on the calling thread (the same morsel path, one worker).
  ThreadPool* pool = nullptr;
  /// Worker tasks spawned per parallel pipeline (at most one per morsel).
  int num_workers = 1;

  /// Per-worker counter slots used during a parallel section so the hot
  /// path never touches shared counters or atomics. Merged into `stats`
  /// (exactly, see ExecStats::Merge) at the section barrier.
  std::vector<ExecStats> worker_stats;

  /// Per-query memory tracker (child of the engine root). Null when the
  /// plan runs outside Database::ExecutePlan (unit tests build contexts
  /// directly); all budget checks treat null as unlimited.
  std::shared_ptr<MemoryTracker> memory;
  /// Spill-file provider for budgeted joins/aggregates; null disables
  /// spilling (budget violations then fail the query outright).
  SpillManager* spill = nullptr;
  /// Partition count used by budgeted (spill-capable) operators. Results
  /// are byte-identical at every value; it only moves the spill
  /// granularity.
  size_t spill_partitions = 8;

  /// Number of operator ids handed out for this plan; slot count of
  /// `stats.op_timings` once every operator has reported.
  int num_ops = 0;

  /// Cooperative interruption for this query (deadline + cancel flag);
  /// null means uninterruptible. Shared with the issuing side (the HTTP
  /// front end arms timeouts here), polled at chunk boundaries.
  const QueryControl* control = nullptr;

  /// OK while the query is under its memory budget; otherwise the
  /// ResourceExhausted status operators propagate. Called at chunk
  /// boundaries, never per row.
  Status CheckMemoryBudget(const char* who) const {
    if (memory == nullptr) return Status::OK();
    return memory->CheckBudget(who);
  }

  /// True when operators must run in budget-aware (spill-capable) mode.
  bool memory_limited() const {
    return memory != nullptr && memory->budget_limited();
  }

  /// OK while the query is neither cancelled nor past its deadline.
  /// Called at chunk boundaries alongside CheckMemoryBudget; free when no
  /// control is attached.
  Status CheckControl(const char* who) const {
    if (control == nullptr) return Status::OK();
    return control->Check(who);
  }

  /// The pool for a parallel section over `rows` input rows: the
  /// context's pool when it has one and the input spans more than one
  /// kChunkSize block, else null (the section runs inline). Results never
  /// depend on the choice.
  ThreadPool* PoolFor(size_t rows) const {
    return rows > kChunkSize ? pool : nullptr;
  }

  /// Hands out the next per-plan operator id (called from the
  /// PhysicalOperator constructor).
  int RegisterOp() { return num_ops++; }

  void PrepareWorkerStats() {
    worker_stats.assign(static_cast<size_t>(num_workers), ExecStats{});
  }
  void MergeWorkerStats() {
    for (const ExecStats& w : worker_stats) stats.Merge(w);
    worker_stats.clear();
  }
};

/// Opens a self-time span writing into `stats` for operator `op_id`
/// (no-op when `stats` is null or `op_id` < 0).
inline MetricSpan StatsSpan(ExecStats* stats, int op_id) {
  return MetricSpan(stats != nullptr ? &stats->op_timings : nullptr,
                    stats != nullptr ? &stats->active_span : nullptr, op_id);
}

/// A named sub-phase of one operator (e.g. HashJoin build vs probe) with
/// its own timing slot. Phase slots are registered like operator ids, so
/// MetricSpans write to them directly; CollectProfile renders each phase
/// as a pseudo-child node "Name::phase" under its operator.
struct OperatorPhase {
  std::string name;
  int op_id = -1;
};

/// Base class for vectorized pull-based operators (Volcano with chunks).
///
/// Protocol: `Open()` once, then `Next(&chunk, &done)` until `done`.
/// A returned chunk may be empty only together with done == true.
///
/// Open()/Next() are non-virtual timing wrappers: they record the call's
/// self time (plus rows and invocations for Next) into the operator's
/// `ExecStats::op_timings` slot and delegate to OpenImpl()/NextImpl().
/// Subclasses override the *Impl hooks and never pay for timing twice;
/// morsel-path entry points (ScanMorsel, MorselPipeline::Apply) open
/// their own spans against per-worker slots instead.
class PhysicalOperator {
 public:
  PhysicalOperator(Schema schema, ExecContext* context)
      : schema_(std::move(schema)),
        context_(context),
        op_id_(context != nullptr ? context->RegisterOp() : -1) {}
  virtual ~PhysicalOperator() = default;

  PhysicalOperator(const PhysicalOperator&) = delete;
  PhysicalOperator& operator=(const PhysicalOperator&) = delete;

  const Schema& schema() const { return schema_; }
  ExecContext* context() const { return context_; }

  /// Per-plan slot index into ExecStats::op_timings (-1 = untimed).
  int op_id() const { return op_id_; }

  /// Prepares the operator (e.g. builds hash tables). Called exactly once
  /// before the first Next(). Times the call; delegates to OpenImpl().
  Status Open();

  /// Produces the next batch. Sets *done = true when the stream ends (the
  /// chunk returned alongside done may still carry rows). Times the call
  /// and counts emitted rows; delegates to NextImpl().
  Status Next(Chunk* chunk, bool* done);

  /// Operator name for EXPLAIN ANALYZE-style output.
  virtual std::string name() const = 0;

  /// Child operators in plan order (for profile tree walks). Base
  /// returns none; operators with inputs override.
  virtual std::vector<const PhysicalOperator*> children() const { return {}; }

  /// Timed sub-phases of this operator, if any (see OperatorPhase).
  virtual std::vector<OperatorPhase> phases() const { return {}; }

  /// True for the table scan and the per-chunk transforms that keep its
  /// morsel index on their output (Chunk::morsel()); Next() clears the
  /// index on every other operator's chunks.
  virtual bool carries_morsel() const { return false; }

 protected:
  virtual Status OpenImpl() = 0;
  virtual Status NextImpl(Chunk* chunk, bool* done) = 0;

  Schema schema_;
  ExecContext* context_;

 private:
  int op_id_;
};

using PhysicalOpPtr = std::unique_ptr<PhysicalOperator>;

/// A per-chunk transform over one streamed input: Filter, Project and the
/// hash-join probe. Execute() is the whole per-chunk step. The pull path
/// below and the morsel pipeline's workers (exec/parallel.h) both call it,
/// so the two paths share one implementation per operator.
class PhysicalChunkTransform : public PhysicalOperator {
 public:
  /// `input` binds by reference, so a derived constructor may also read
  /// `input->schema()` in the same argument list.
  PhysicalChunkTransform(Schema schema, PhysicalOpPtr&& input,
                         ExecContext* context)
      : PhysicalOperator(std::move(schema), context),
        input_(std::move(input)) {}

  /// Transforms one non-empty input chunk; `*out` may come back empty.
  /// Thread-safe once Open() returned: counters go to `stats` (the
  /// query's block or a worker's slot), nothing else is written.
  virtual Status Execute(const Chunk& input, Chunk* out,
                         ExecStats* stats) const = 0;

  /// The streamed input (the probe side of a join).
  PhysicalOperator* input() const { return input_.get(); }
  std::vector<const PhysicalOperator*> children() const override {
    return {input_.get()};
  }
  bool carries_morsel() const override { return true; }

 protected:
  Status OpenImpl() override;
  /// Pulls input chunks through Execute(), skipping empty results.
  Status NextImpl(Chunk* chunk, bool* done) override;

  PhysicalOpPtr input_;

 private:
  bool input_done_ = false;
};

/// Pre-order walk of the plan rooted at `root`, pairing each operator
/// with its merged timing slot in `stats`. Input for RenderProfileTree
/// and the per-operator registry counters.
std::vector<OperatorProfileNode> CollectProfile(const PhysicalOperator* root,
                                                const ExecStats& stats);

/// Appends a type-tagged binary encoding of row `row` of `col` to `out`.
/// Equal values encode equally; used for hash keys in aggregate/distinct.
void AppendKeyBytes(const ColumnVector& col, size_t row, std::string* out);

}  // namespace agora

#endif  // AGORA_EXEC_PHYSICAL_OP_H_
