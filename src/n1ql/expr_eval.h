// N1QL expression evaluation over bound documents, with N1QL's
// MISSING/NULL propagation semantics.
#ifndef COUCHKV_N1QL_EXPR_EVAL_H_
#define COUCHKV_N1QL_EXPR_EVAL_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "json/value.h"
#include "n1ql/ast.h"

namespace couchkv::n1ql {

// A document bound to an alias within a row.
struct BoundDoc {
  json::Value value;
  std::string meta_id;
  uint64_t meta_cas = 0;
  // The body is not JSON; `value` is then the "<binary (N b)>" placeholder.
  bool binary = false;
};

// One row flowing through the execution pipeline: alias -> document. The
// transparent comparator lets a borrowed alias look up its binding.
struct Row {
  std::map<std::string, BoundDoc, std::less<>> bindings;
};

struct EvalContext {
  const Row* row = nullptr;
  // The FROM alias used to resolve unqualified paths (e.g. `name` in
  // SELECT name FROM profiles). Borrowed: the statement owns the string and
  // outlives every context built while it runs.
  std::string_view default_alias;
  // Positional parameters ($1 is params[0]).
  const std::vector<json::Value>* params = nullptr;
  // Pre-computed aggregate results keyed by normalized expression text
  // (supplied by the Group operator so COUNT(*) etc. can be referenced in
  // projections, HAVING and ORDER BY).
  const std::map<std::string, json::Value>* aggregates = nullptr;
};

// True for COUNT/SUM/AVG/MIN/MAX.
bool IsAggregateFunction(const std::string& lower_name);

// Evaluates `expr` in `ctx`. Returns an error only for structural problems
// (unknown function, parameter out of range); data-dependent oddities yield
// MISSING or NULL per N1QL semantics.
StatusOr<json::Value> Eval(const Expr& expr, const EvalContext& ctx);

// Evaluates as a condition: MISSING/NULL/false → false.
StatusOr<bool> EvalCondition(const Expr& expr, const EvalContext& ctx);

// SQL LIKE with % and _ wildcards.
bool LikeMatch(const std::string& text, const std::string& pattern);

}  // namespace couchkv::n1ql

#endif  // COUCHKV_N1QL_EXPR_EVAL_H_
