#include "n1ql/exec_util.h"

namespace couchkv::n1ql {

using json::Value;

StatusOr<Value> ComputeAggregate(const Expr& agg, const std::vector<Row>& rows,
                                 std::string_view default_alias,
                                 const std::vector<Value>& params) {
  std::vector<Value> inputs;
  inputs.reserve(rows.size());
  for (const Row& r : rows) {
    if (agg.fn_star) {
      inputs.push_back(Value::Bool(true));  // COUNT(*): every row counts
      continue;
    }
    EvalContext ctx;
    ctx.row = &r;
    ctx.default_alias = default_alias;
    ctx.params = &params;
    auto v = Eval(*agg.children[0], ctx);
    if (!v.ok()) return v.status();
    inputs.push_back(std::move(v).value());
  }
  if (agg.fn_distinct) {
    std::vector<Value> uniq;
    for (Value& v : inputs) {
      bool dup = false;
      for (const Value& u : uniq) {
        if (Value::Compare(u, v) == 0) {
          dup = true;
          break;
        }
      }
      if (!dup) uniq.push_back(std::move(v));
    }
    inputs = std::move(uniq);
  }
  if (agg.fn_name == "count") {
    int64_t n = 0;
    for (const Value& v : inputs) {
      if (!v.is_missing() && !v.is_null()) ++n;
    }
    return Value::Int(n);
  }
  if (agg.fn_name == "sum" || agg.fn_name == "avg") {
    double sum = 0;
    int64_t n = 0;
    for (const Value& v : inputs) {
      if (v.is_number()) {
        sum += v.AsNumber();
        ++n;
      }
    }
    if (agg.fn_name == "sum") return n ? Value::Number(sum) : Value::Null();
    return n ? Value::Number(sum / static_cast<double>(n)) : Value::Null();
  }
  // MIN / MAX over the collation order, ignoring missing/null.
  Value best = Value::Missing();
  for (const Value& v : inputs) {
    if (v.is_missing() || v.is_null()) continue;
    if (best.is_missing()) {
      best = v;
    } else {
      int c = Value::Compare(v, best);
      if ((agg.fn_name == "min" && c < 0) || (agg.fn_name == "max" && c > 0)) {
        best = v;
      }
    }
  }
  return best.is_missing() ? Value::Null() : best;
}

StatusOr<size_t> EvalCountExpr(const ExprPtr& e,
                               const std::vector<Value>& params,
                               size_t fallback) {
  if (e == nullptr) return fallback;
  EvalContext ctx;
  ctx.params = &params;
  auto v = Eval(*e, ctx);
  if (!v.ok()) return v.status();
  if (!v->is_number() || v->AsNumber() < 0) {
    return Status::InvalidArgument("LIMIT/OFFSET must be a non-negative number");
  }
  return static_cast<size_t>(v->AsNumber());
}

StatusOr<Value> ProjectSelectItems(const std::vector<SelectItem>& items,
                                   const EvalContext& ctx) {
  Value out = Value::MakeObject();
  size_t anon = 1;
  for (const SelectItem& item : items) {
    if (item.star) {
      // '*' merges every bound document into the result object.
      for (const auto& [alias, doc] : ctx.row->bindings) {
        if (doc.value.is_object()) {
          for (const auto& [k, v] : doc.value.AsObject()) {
            out[k] = v;
          }
        } else if (!doc.value.is_missing()) {
          out[alias] = doc.value;
        }
      }
      continue;
    }
    // alias.* form arrives as __star__(path).
    if (item.expr->kind == ExprKind::kFunction &&
        item.expr->fn_name == "__star__") {
      auto v = Eval(*item.expr->children[0], ctx);
      if (!v.ok()) return v.status();
      if (v->is_object()) {
        for (const auto& [k, field] : v->AsObject()) out[k] = field;
      }
      continue;
    }
    auto v = Eval(*item.expr, ctx);
    if (!v.ok()) return v.status();
    std::string name = item.alias;
    if (name.empty()) name = "$" + std::to_string(anon++);
    if (!v->is_missing()) out[name] = std::move(v).value();
  }
  return out;
}

const ExprPtr& ResolveOutputAlias(const ExprPtr& expr,
                                  const std::vector<SelectItem>& items) {
  if (expr == nullptr || expr->kind != ExprKind::kPath ||
      expr->path.size() != 1 || expr->path[0].is_index()) {
    return expr;
  }
  for (const SelectItem& item : items) {
    if (!item.star && item.expr != nullptr &&
        item.alias == expr->path[0].field) {
      // Do not substitute when the "alias" is really the trailing segment
      // of the same path (SELECT name FROM b ORDER BY name is identical
      // either way, so substitution is still safe).
      return item.expr;
    }
  }
  return expr;
}

}  // namespace couchkv::n1ql
