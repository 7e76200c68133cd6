#ifndef AGORA_EXEC_PHYSICAL_PLANNER_H_
#define AGORA_EXEC_PHYSICAL_PLANNER_H_

#include "common/result.h"
#include "exec/physical_op.h"
#include "plan/logical_plan.h"

namespace agora {

/// Knobs controlling physical plan choice. Exposed so the benchmarks can
/// disable individual decisions (E4 ablations).
struct PhysicalPlannerOptions {
  /// Use hash joins for equi-conditions (otherwise nested loops).
  bool enable_hash_join = true;
  /// Use zone maps for block skipping when the scan has a pushed range
  /// predicate.
  bool enable_zone_maps = true;
  /// Use hash indexes for `col = constant` scans when one exists.
  bool enable_index_scan = true;
  /// Fuse ORDER BY + LIMIT into a bounded-memory TopK.
  bool enable_topk = true;
  /// Worker tasks per morsel pipeline (see exec/parallel.h); 1 runs
  /// every pipeline inline, which is serial execution. 0 = auto: the
  /// AGORA_THREADS environment variable if set, else hardware
  /// concurrency. Plans and results are identical at every value.
  int num_threads = 0;
};

/// Lowers an (optionally optimized) logical plan into an executable
/// physical operator tree bound to `context`.
Result<PhysicalOpPtr> CreatePhysicalPlan(
    const LogicalOpPtr& plan, ExecContext* context,
    const PhysicalPlannerOptions& options = {});

}  // namespace agora

#endif  // AGORA_EXEC_PHYSICAL_PLANNER_H_
