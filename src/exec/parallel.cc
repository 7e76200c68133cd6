#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "common/thread_pool.h"
#include "exec/join.h"

namespace agora {

bool MorselPipeline::TryBuild(PhysicalOperator* op, MorselPipeline* out) {
  out->transforms_.clear();
  // Walk down the chain, collecting transforms root-first; reverse at the
  // end so Apply() runs them source-to-root.
  PhysicalOperator* cur = op;
  while (auto* transform = dynamic_cast<PhysicalChunkTransform*>(cur)) {
    // A budgeted (spill-capable) join drives its own probe loop so it
    // can divert rows of spilled partitions to disk; it cannot act as
    // a stateless morsel transform. Spill mode is fixed when the join is
    // built, from the budget configuration alone, so the planner already
    // knows the answer and pipeline shape never depends on the worker
    // count.
    auto* join = dynamic_cast<PhysicalHashJoin*>(transform);
    if (join != nullptr && join->spill_mode()) return false;
    out->transforms_.push_back(transform);
    cur = transform->input();
  }
  out->source_ = dynamic_cast<PhysicalScan*>(cur);
  if (out->source_ == nullptr) return false;  // breaker or other leaf
  std::reverse(out->transforms_.begin(), out->transforms_.end());
  return true;
}

Status MorselPipeline::Apply(Chunk&& chunk, Chunk* out,
                             ExecStats* stats) const {
  Chunk cur = std::move(chunk);
  for (const PhysicalChunkTransform* transform : transforms_) {
    if (cur.num_rows() == 0) break;  // fully filtered; skip the rest
    // Each transform's span writes to the worker's stats slot under the
    // operator's own id, so morsel-path work is attributed like the pull
    // path's (the spans nest under the per-morsel scan span).
    MetricSpan span = StatsSpan(stats, transform->op_id());
    Chunk next;
    AGORA_RETURN_IF_ERROR(transform->Execute(cur, &next, stats));
    span.AddRows(static_cast<int64_t>(next.num_rows()));
    cur = std::move(next);
  }
  *out = std::move(cur);
  return Status::OK();
}

Status DriveMorselPipeline(
    const MorselPipeline& pipeline, ExecContext* context, const char* who,
    const std::function<Status(int, const Morsel&, Chunk&&)>& sink) {
  PhysicalScan* source = pipeline.source();
  context->PrepareWorkerStats();

  // Each task loops claim → scan → check → transform → sink until the
  // shared cursor runs dry. An atomic flag makes peers stop early when
  // any worker fails.
  std::atomic<bool> failed{false};
  const int scan_op_id = source->op_id();
  auto worker_body = [&, context](int worker) -> Status {
    // Workers run on pool threads that have no tracker installed; adopt
    // the query's tracker so ColumnVectors the morsel pipeline creates
    // charge the right budget (tracker counters are atomics).
    ScopedMemoryTracker tracker_scope(context->memory);
    ExecStats* stats = &context->worker_stats[static_cast<size_t>(worker)];
    Morsel morsel;
    while (!failed.load(std::memory_order_relaxed) &&
           source->ClaimMorsel(&morsel)) {
      Status st;
      {
        // Per-morsel scan span on the worker's slot; the transform spans
        // opened inside Apply() nest under it and subtract themselves,
        // leaving pure scan time here.
        MetricSpan scan_span = StatsSpan(stats, scan_op_id);
        st = source->ScanMorsel(
            morsel,
            [&](Chunk&& chunk) -> Status {
              scan_span.AddRows(static_cast<int64_t>(chunk.num_rows()));
              // The chunk-boundary checks of every consumer: a cancelled,
              // late or over-budget query stops within one chunk per
              // worker.
              AGORA_RETURN_IF_ERROR(context->CheckControl(who));
              AGORA_RETURN_IF_ERROR(context->CheckMemoryBudget(who));
              Chunk out;
              AGORA_RETURN_IF_ERROR(
                  pipeline.Apply(std::move(chunk), &out, stats));
              if (out.num_rows() == 0) return Status::OK();
              return sink(worker, morsel, std::move(out));
            },
            stats);
      }
      if (!st.ok()) {
        failed.store(true, std::memory_order_relaxed);
        return st;
      }
    }
    return Status::OK();
  };

  // One task per worker, but never more tasks than morsels: a one-morsel
  // source, like any source without a pool, runs as one task inline on
  // this thread. Same code path, same results.
  size_t tasks = std::min<size_t>(std::max(context->num_workers, 1),
                                  source->MorselCount());
  ThreadPool* pool = tasks > 1 ? context->pool : nullptr;
  if (pool == nullptr) tasks = std::min<size_t>(tasks, 1);
  const auto section_start = std::chrono::steady_clock::now();
  TaskGroup group(pool);
  for (size_t w = 0; w < tasks; ++w) {
    const int worker = static_cast<int>(w);
    group.Spawn([&worker_body, worker]() { return worker_body(worker); });
  }
  Status status = group.Wait();
  context->MergeWorkerStats();
  // The workers already booked their busy time into per-worker slots (now
  // merged), so the section's wall time must not also count as self time
  // of whichever serial operator (Gather, HashAggregate, Sort, HashJoin
  // build) is driving this pipeline from inside its own span.
  if (context->stats.active_span != nullptr) {
    context->stats.active_span->AddChildTime(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - section_start)
            .count());
  }
  return status;
}

namespace {

/// Opens `op` and drains it into `*chunks`, in morsel order on the morsel
/// path (CollectAll and Gather share it). Checks the memory budget once
/// per chunk on both paths.
Status CollectChunks(PhysicalOperator* op, const char* who,
                     std::vector<Chunk>* chunks) {
  AGORA_RETURN_IF_ERROR(op->Open());
  ExecContext* context = op->context();
  MorselPipeline pipeline;
  if (context != nullptr && MorselPipeline::TryBuild(op, &pipeline)) {
    // One slot per morsel; a morsel is owned by exactly one worker, so the
    // slots need no locking. Flattening them in morsel order yields
    // exactly the pull order.
    std::vector<std::vector<Chunk>> by_morsel(
        pipeline.source()->MorselCount());
    AGORA_RETURN_IF_ERROR(DriveMorselPipeline(
        pipeline, context, who,
        [&by_morsel](int /*worker*/, const Morsel& morsel,
                     Chunk&& chunk) -> Status {
          by_morsel[morsel.index].push_back(std::move(chunk));
          return Status::OK();
        }));
    for (std::vector<Chunk>& slot : by_morsel) {
      for (Chunk& chunk : slot) chunks->push_back(std::move(chunk));
    }
    return Status::OK();
  }
  bool done = false;
  while (!done) {
    Chunk chunk;
    AGORA_RETURN_IF_ERROR(op->Next(&chunk, &done));
    if (context != nullptr) {
      AGORA_RETURN_IF_ERROR(context->CheckMemoryBudget(who));
    }
    if (chunk.num_rows() > 0) chunks->push_back(std::move(chunk));
  }
  return Status::OK();
}

}  // namespace

Result<Chunk> CollectAll(PhysicalOperator* op) {
  std::vector<Chunk> chunks;
  AGORA_RETURN_IF_ERROR(CollectChunks(op, "CollectAll", &chunks));
  Chunk result = Chunk::Concat(op->schema(), std::move(chunks));
  if (op->context() != nullptr) {
    AGORA_RETURN_IF_ERROR(op->context()->CheckMemoryBudget("CollectAll"));
  }
  return result;
}

PhysicalGather::PhysicalGather(PhysicalOpPtr child, ExecContext* context)
    : PhysicalOperator(child->schema(), context), child_(std::move(child)) {}

Status PhysicalGather::OpenImpl() {
  chunks_.clear();
  next_chunk_ = 0;
  return CollectChunks(child_.get(), "Gather", &chunks_);
}

Status PhysicalGather::NextImpl(Chunk* chunk, bool* done) {
  if (next_chunk_ < chunks_.size()) {
    *chunk = std::move(chunks_[next_chunk_]);
    ++next_chunk_;
    *done = next_chunk_ == chunks_.size();
    return Status::OK();
  }
  *chunk = Chunk(schema_);
  *done = true;
  return Status::OK();
}

}  // namespace agora
