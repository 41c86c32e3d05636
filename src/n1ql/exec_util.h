// Execution helpers shared by the N1QL query service and the analytics
// service: aggregate computation, LIMIT/OFFSET evaluation, row projection.
#ifndef COUCHKV_N1QL_EXEC_UTIL_H_
#define COUCHKV_N1QL_EXEC_UTIL_H_

#include <string_view>
#include <vector>

#include "common/status.h"
#include "n1ql/ast.h"
#include "n1ql/expr_eval.h"

namespace couchkv::n1ql {

// Computes one aggregate call over the rows of a group.
StatusOr<json::Value> ComputeAggregate(const Expr& agg,
                                       const std::vector<Row>& rows,
                                       std::string_view default_alias,
                                       const std::vector<json::Value>& params);

// Evaluates a LIMIT/OFFSET expression to a count; `fallback` when null.
StatusOr<size_t> EvalCountExpr(const ExprPtr& e,
                               const std::vector<json::Value>& params,
                               size_t fallback);

// Projects one row through the select list ('*', `alias`.*, expressions
// with aliases). Missing values are omitted from the result object.
StatusOr<json::Value> ProjectSelectItems(const std::vector<SelectItem>& items,
                                         const EvalContext& ctx);

// ORDER BY / GROUP BY may name a select-list output alias (standard SQL):
// when `expr` is a bare single-segment path matching an item's alias, the
// item's expression is returned instead; otherwise `expr` itself.
const ExprPtr& ResolveOutputAlias(const ExprPtr& expr,
                                  const std::vector<SelectItem>& items);

}  // namespace couchkv::n1ql

#endif  // COUCHKV_N1QL_EXEC_UTIL_H_
