#ifndef AGORA_EXEC_FILTER_PROJECT_H_
#define AGORA_EXEC_FILTER_PROJECT_H_

#include <vector>

#include "exec/physical_op.h"
#include "expr/expr.h"

namespace agora {

/// Keeps input rows where `predicate` evaluates to TRUE.
class PhysicalFilter : public PhysicalChunkTransform {
 public:
  PhysicalFilter(PhysicalOpPtr child, ExprPtr predicate,
                 ExecContext* context);

  Status Execute(const Chunk& input, Chunk* out,
                 ExecStats* stats) const override;
  std::string name() const override { return "Filter"; }

 private:
  ExprPtr predicate_;
};

/// Evaluates one expression per output column.
class PhysicalProject : public PhysicalChunkTransform {
 public:
  PhysicalProject(PhysicalOpPtr child, std::vector<ExprPtr> exprs,
                  Schema schema, ExecContext* context);

  Status Execute(const Chunk& input, Chunk* out,
                 ExecStats* stats) const override;
  std::string name() const override { return "Project"; }

 private:
  std::vector<ExprPtr> exprs_;
};

}  // namespace agora

#endif  // AGORA_EXEC_FILTER_PROJECT_H_
