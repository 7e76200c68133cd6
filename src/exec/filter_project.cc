#include "exec/filter_project.h"

#include "exec/scan.h"

namespace agora {

PhysicalFilter::PhysicalFilter(PhysicalOpPtr child, ExprPtr predicate,
                               ExecContext* context)
    : PhysicalChunkTransform(child->schema(), std::move(child), context),
      predicate_(std::move(predicate)) {}

Status PhysicalFilter::Execute(const Chunk& input, Chunk* out,
                               ExecStats* stats) const {
  AGORA_ASSIGN_OR_RETURN(*out, FilterChunk(input, *predicate_, stats));
  return Status::OK();
}

PhysicalProject::PhysicalProject(PhysicalOpPtr child,
                                 std::vector<ExprPtr> exprs, Schema schema,
                                 ExecContext* context)
    : PhysicalChunkTransform(std::move(schema), std::move(child), context),
      exprs_(std::move(exprs)) {}

Status PhysicalProject::Execute(const Chunk& input, Chunk* out,
                                ExecStats* stats) const {
  Chunk result;
  EvalContext ctx;
  ctx.chunk = &input;
  ExprCounters counters;
  ctx.counters = &counters;
  for (const ExprPtr& expr : exprs_) {
    ColumnVector col;
    AGORA_RETURN_IF_ERROR(expr->EvalBatch(ctx, &col));
    col.Flatten();
    result.AddColumn(std::move(col));
  }
  result.SetExplicitRowCount(input.num_rows());
  result.set_morsel(input.morsel());
  stats->expr_rows_evaluated += counters.rows_evaluated;
  stats->sel_vector_hits += counters.sel_hits;
  stats->bytes_materialized += static_cast<int64_t>(result.MemoryBytes());
  *out = std::move(result);
  return Status::OK();
}

}  // namespace agora
