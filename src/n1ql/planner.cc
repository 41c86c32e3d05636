#include "n1ql/planner.h"

#include <algorithm>
#include <functional>

#include "n1ql/expr_eval.h"

namespace couchkv::n1ql {

const char* ScanKindName(ScanKind k) {
  switch (k) {
    case ScanKind::kKeyScan: return "KeyScan";
    case ScanKind::kIndexScan: return "IndexScan";
    case ScanKind::kPrimaryScan: return "PrimaryScan";
    case ScanKind::kNoScan: return "NoScan";
  }
  return "?";
}

std::optional<std::string> RelativePathText(const Expr& expr,
                                            const std::string& alias) {
  if (expr.kind != ExprKind::kPath || expr.path.empty()) return std::nullopt;
  size_t start = 0;
  if (!expr.path[0].is_index() && expr.path[0].field == alias) start = 1;
  if (start >= expr.path.size()) return std::nullopt;
  std::string out;
  for (size_t i = start; i < expr.path.size(); ++i) {
    if (expr.path[i].is_index()) {
      out += "[" + std::to_string(expr.path[i].index) + "]";
    } else {
      if (!out.empty()) out += ".";
      out += expr.path[i].field;
    }
  }
  return out;
}

namespace {

// Flattens an AND tree into conjuncts.
void CollectConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
    CollectConjuncts(e->children[0], out);
    CollectConjuncts(e->children[1], out);
  } else {
    out->push_back(e);
  }
}

// A sargable predicate: <path> op <constant>.
struct Sarg {
  std::string path;       // relative to the FROM alias
  BinaryOp op;
  json::Value bound;      // evaluated constant
  bool is_meta_id = false;
  // The bound is NULL or MISSING, so the comparison is never true. The
  // predicate still picks and narrows a scan, but no key range expresses
  // it: it stays in the Filter, which drops every row.
  bool never_true = false;
};

// Evaluates an expression that must be constant (literals / parameters /
// arithmetic over them). Returns nullopt when it references documents.
std::optional<json::Value> EvalConst(const Expr& e,
                                     const std::vector<json::Value>& params) {
  EvalContext ctx;
  ctx.params = &params;
  // No row: paths evaluate to missing, which we reject below.
  if (e.kind == ExprKind::kPath || e.kind == ExprKind::kMeta) {
    return std::nullopt;
  }
  auto v = Eval(e, ctx);
  if (!v.ok()) return std::nullopt;
  return std::move(v).value();
}

// Tries to interpret a conjunct as a sargable predicate on a path or on
// META().id.
std::optional<Sarg> MatchSarg(const Expr& e, const std::string& alias,
                              const std::vector<json::Value>& params) {
  if (e.kind != ExprKind::kBinary) return std::nullopt;
  BinaryOp op = e.binary_op;
  if (op != BinaryOp::kEq && op != BinaryOp::kLt && op != BinaryOp::kLte &&
      op != BinaryOp::kGt && op != BinaryOp::kGte) {
    return std::nullopt;
  }
  const Expr* lhs = e.children[0].get();
  const Expr* rhs = e.children[1].get();
  bool flipped = false;
  auto path_side = [&](const Expr* side) -> std::optional<Sarg> {
    Sarg s;
    if (side->kind == ExprKind::kMeta && side->meta_field == "id" &&
        (side->meta_alias.empty() || side->meta_alias == alias)) {
      s.is_meta_id = true;
    } else {
      auto rel = RelativePathText(*side, alias);
      if (!rel.has_value()) return std::nullopt;
      s.path = *rel;
    }
    return s;
  };
  std::optional<Sarg> s = path_side(lhs);
  const Expr* const_side = rhs;
  if (!s.has_value()) {
    s = path_side(rhs);
    const_side = lhs;
    flipped = true;
  }
  if (!s.has_value()) return std::nullopt;
  auto bound = EvalConst(*const_side, params);
  if (!bound.has_value()) return std::nullopt;
  if (flipped) {
    // c op path  ==>  path op' c
    switch (op) {
      case BinaryOp::kLt: op = BinaryOp::kGt; break;
      case BinaryOp::kLte: op = BinaryOp::kGte; break;
      case BinaryOp::kGt: op = BinaryOp::kLt; break;
      case BinaryOp::kGte: op = BinaryOp::kLte; break;
      default: break;
    }
  }
  s->op = op;
  s->never_true = bound->is_null() || bound->is_missing();
  s->bound = std::move(*bound);
  return s;
}

// Collects every path referenced by an expression (relative to the FROM
// alias); used for covering-index detection. Returns false if something
// cannot be resolved to a document path (then covering is impossible).
bool CollectReferencedPaths(const Expr& e, const std::string& alias,
                            std::vector<std::string>* out) {
  switch (e.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kParameter:
      return true;
    case ExprKind::kMeta:
      // meta().id rides along with every index entry; other fields do not.
      return e.meta_field == "id" &&
             (e.meta_alias.empty() || e.meta_alias == alias);
    case ExprKind::kPath: {
      auto rel = RelativePathText(e, alias);
      if (!rel.has_value()) return false;
      out->push_back(*rel);
      return true;
    }
    default:
      for (const ExprPtr& c : e.children) {
        if (c != nullptr && !CollectReferencedPaths(*c, alias, out)) {
          return false;
        }
      }
      for (const CaseArm& arm : e.case_arms) {
        if (!CollectReferencedPaths(*arm.when, alias, out) ||
            !CollectReferencedPaths(*arm.then, alias, out)) {
          return false;
        }
      }
      if (e.case_else != nullptr &&
          !CollectReferencedPaths(*e.case_else, alias, out)) {
        return false;
      }
      return true;
  }
}

// The document paths a SELECT references, or nullopt when an index cannot
// cover it at all (`*`, a join, the bare alias, or a meta() field other
// than id). An empty list means the statement reads nothing but meta().id.
std::optional<std::vector<std::string>> CoverablePaths(
    const SelectStatement& stmt) {
  if (!stmt.joins.empty()) return std::nullopt;
  const std::string& alias = stmt.from->alias;
  std::vector<const Expr*> exprs;
  for (const SelectItem& item : stmt.items) {
    if (item.star) return std::nullopt;
    exprs.push_back(item.expr.get());
  }
  exprs.push_back(stmt.where.get());
  for (const ExprPtr& g : stmt.group_by) exprs.push_back(g.get());
  exprs.push_back(stmt.having.get());
  for (const OrderKey& k : stmt.order_by) exprs.push_back(k.expr.get());
  std::vector<std::string> paths;
  for (const Expr* e : exprs) {
    if (e != nullptr && !CollectReferencedPaths(*e, alias, &paths)) {
      return std::nullopt;
    }
  }
  return paths;
}

// Narrows `r` by one sargable predicate. Several predicates on the same key
// intersect: the tighter bound wins, and on a tie the exclusive one.
void NarrowRange(const Sarg& s, gsi::ScanRange* r) {
  // `sign` is +1 for a lower bound (larger is tighter), -1 for an upper one.
  auto tighten = [](std::optional<json::Value>* bound, bool* inclusive,
                    const json::Value& v, bool v_inclusive, int sign) {
    if (bound->has_value()) {
      int c = sign * json::Value::Compare(v, **bound);
      if (c < 0 || (c == 0 && (v_inclusive || !*inclusive))) return;
    }
    *bound = v;
    *inclusive = v_inclusive;
  };
  switch (s.op) {
    case BinaryOp::kEq:
      tighten(&r->lo, &r->lo_inclusive, s.bound, true, 1);
      tighten(&r->hi, &r->hi_inclusive, s.bound, true, -1);
      break;
    case BinaryOp::kGt:
      tighten(&r->lo, &r->lo_inclusive, s.bound, false, 1);
      break;
    case BinaryOp::kGte:
      tighten(&r->lo, &r->lo_inclusive, s.bound, true, 1);
      break;
    case BinaryOp::kLt:
      tighten(&r->hi, &r->hi_inclusive, s.bound, false, -1);
      break;
    case BinaryOp::kLte:
      tighten(&r->hi, &r->hi_inclusive, s.bound, true, -1);
      break;
    default:
      break;
  }
}

std::string DescribeRange(const gsi::ScanRange& range) {
  std::string desc;
  if (range.lo.has_value()) {
    desc += (range.lo_inclusive ? ">= " : "> ") + range.lo->ToJson();
  }
  if (range.hi.has_value()) {
    if (!desc.empty()) desc += " AND ";
    desc += (range.hi_inclusive ? "<= " : "< ") + range.hi->ToJson();
  }
  return desc;
}

void CollectAggregatesExpr(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kFunction && IsAggregateFunction(e->fn_name)) {
    out->push_back(e);
    return;  // no nested aggregates
  }
  for (const ExprPtr& c : e->children) CollectAggregatesExpr(c, out);
  if (e->kind == ExprKind::kCase) {
    for (const auto& arm : e->case_arms) {
      CollectAggregatesExpr(arm.when, out);
      CollectAggregatesExpr(arm.then, out);
    }
    CollectAggregatesExpr(e->case_else, out);
  }
}

}  // namespace

void CollectAggregates(const SelectStatement& stmt,
                       std::vector<ExprPtr>* out) {
  for (const SelectItem& item : stmt.items) CollectAggregatesExpr(item.expr, out);
  CollectAggregatesExpr(stmt.having, out);
  for (const OrderKey& k : stmt.order_by) CollectAggregatesExpr(k.expr, out);
}

bool QueryPlan::KeepsScanRows(const SelectStatement& stmt) const {
  return scan.where_consumed && stmt.joins.empty() && stmt.group_by.empty() &&
         !has_aggregates && stmt.order_by.empty() && !stmt.distinct;
}

bool QueryPlan::IdRows(const SelectStatement& stmt) const {
  if (!scan.covering || !KeepsScanRows(stmt) || stmt.items.size() != 1) {
    return false;
  }
  const Expr* e = stmt.items[0].expr.get();
  return e != nullptr && e->kind == ExprKind::kMeta && e->meta_field == "id" &&
         (e->meta_alias.empty() || e->meta_alias == stmt.from->alias);
}

json::Value QueryPlan::Describe(const SelectStatement& stmt) const {
  json::Value plan = json::Value::MakeObject();
  json::Value ops = json::Value::MakeArray();
  json::Value scan_op = json::Value::MakeObject();
  scan_op["#operator"] = json::Value::Str(ScanKindName(scan.kind));
  if (!scan.index_name.empty()) {
    scan_op["index"] = json::Value::Str(scan.index_name);
  }
  const bool index_backed =
      scan.kind == ScanKind::kIndexScan || scan.kind == ScanKind::kPrimaryScan;
  if (index_backed) {
    scan_op["covering"] = json::Value::Bool(scan.covering);
    scan_op["id_rows"] = json::Value::Bool(IdRows(stmt));
    std::string range = DescribeRange(scan.range);
    if (!range.empty()) scan_op["range"] = json::Value::Str(std::move(range));
  }
  ops.Append(std::move(scan_op));
  if (index_backed && !scan.covering) {
    json::Value fetch = json::Value::MakeObject();
    fetch["#operator"] = json::Value::Str("Fetch");
    ops.Append(std::move(fetch));
  }
  for (const JoinClause& jc : stmt.joins) {
    json::Value op = json::Value::MakeObject();
    switch (jc.kind) {
      case JoinClause::Kind::kJoin:
        op["#operator"] = json::Value::Str(
            jc.join_kind == JoinKind::kInner ? "Join" : "LeftOuterJoin");
        break;
      case JoinClause::Kind::kNest:
        op["#operator"] = json::Value::Str("Nest");
        break;
      case JoinClause::Kind::kUnnest:
        op["#operator"] = json::Value::Str("Unnest");
        break;
    }
    ops.Append(std::move(op));
  }
  if (RunsFilter(stmt)) {
    json::Value filter = json::Value::MakeObject();
    filter["#operator"] = json::Value::Str("Filter");
    filter["condition"] = json::Value::Str(stmt.where->ToString());
    ops.Append(std::move(filter));
  }
  if (has_aggregates || !stmt.group_by.empty()) {
    json::Value group = json::Value::MakeObject();
    group["#operator"] = json::Value::Str("Group");
    ops.Append(std::move(group));
  }
  {
    json::Value proj = json::Value::MakeObject();
    proj["#operator"] = json::Value::Str("InitialProject");
    ops.Append(std::move(proj));
  }
  if (!stmt.order_by.empty()) {
    json::Value sort = json::Value::MakeObject();
    sort["#operator"] = json::Value::Str("Sort");
    ops.Append(std::move(sort));
  }
  if (stmt.limit != nullptr || stmt.offset != nullptr) {
    json::Value lim = json::Value::MakeObject();
    lim["#operator"] = json::Value::Str("Limit");
    ops.Append(std::move(lim));
  }
  {
    json::Value proj = json::Value::MakeObject();
    proj["#operator"] = json::Value::Str("FinalProject");
    ops.Append(std::move(proj));
  }
  plan["operators"] = std::move(ops);
  return plan;
}

StatusOr<QueryPlan> PlanSelect(const SelectStatement& stmt,
                               const std::vector<gsi::IndexDefinition>& indexes,
                               const std::vector<json::Value>& params) {
  QueryPlan plan;
  CollectAggregates(stmt, &plan.aggregate_exprs);
  plan.has_aggregates = !plan.aggregate_exprs.empty();

  if (!stmt.from.has_value()) {
    plan.scan.kind = ScanKind::kNoScan;
    return plan;
  }
  const FromTerm& from = *stmt.from;

  // 1. USE KEYS always wins: direct key-value retrieval performance
  //    (paper §3.2.3).
  if (from.use_keys != nullptr) {
    plan.scan.kind = ScanKind::kKeyScan;
    plan.scan.use_keys = from.use_keys;
    return plan;
  }

  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(stmt.where, &conjuncts);
  std::vector<std::optional<Sarg>> sargs;
  sargs.reserve(conjuncts.size());
  for (const ExprPtr& c : conjuncts) {
    sargs.push_back(MatchSarg(*c, from.alias, params));
  }

  // Referenced paths for covering detection.
  const std::optional<std::vector<std::string>> referenced =
      CoverablePaths(stmt);

  // 2. Look for the best qualifying secondary index.
  const gsi::IndexDefinition* best = nullptr;
  gsi::ScanRange best_range;
  int best_score = -1;
  for (const gsi::IndexDefinition& def : indexes) {
    if (def.is_primary || def.key_paths.empty()) continue;
    if (def.array_index) continue;  // array indexes handled via ANY below
    // Partial index: the query must repeat the index predicate verbatim as
    // a conjunct (textual implication check, as Couchbase requires the
    // WHERE clause to match).
    if (!def.where_text.empty()) {
      bool implied = false;
      for (const ExprPtr& c : conjuncts) {
        if (c->ToString() == def.where_text) {
          implied = true;
          break;
        }
      }
      if (!implied) continue;
    }
    const std::string& lead = def.key_paths[0];
    gsi::ScanRange range;
    int score = 0;
    for (const auto& s : sargs) {
      if (!s.has_value() || s->is_meta_id || s->path != lead) continue;
      NarrowRange(*s, &range);
      score = std::max(score, s->op == BinaryOp::kEq ? 100 : 50);
    }
    if (score == 0) continue;
    if (!def.where_text.empty()) score += 10;  // partial indexes are smaller
    if (score > best_score) {
      best = &def;
      best_range = range;
      best_score = score;
    }
  }

  if (best != nullptr) {
    // A range with no lower bound starts just above NULL, as N1QL's spans
    // do: NULL keys sort first and never satisfy a comparison, so scanning
    // them would let a pushed-down LIMIT count rows the Filter then drops.
    if (!best_range.lo.has_value() && best_range.hi.has_value()) {
      best_range.lo = json::Value::Null();
      best_range.lo_inclusive = false;
    }
    plan.scan.kind = ScanKind::kIndexScan;
    plan.scan.index_name = best->name;
    plan.scan.range = best_range;
    plan.scan.index_key_paths = best->key_paths;
    // WHERE is fully absorbed when every conjunct compares the chosen
    // leading key with a bound that can be true (or restates the
    // partial-index predicate).
    plan.scan.where_consumed = true;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      bool absorbed =
          (sargs[i].has_value() && !sargs[i]->is_meta_id &&
           !sargs[i]->never_true && sargs[i]->path == best->key_paths[0]) ||
          (!best->where_text.empty() &&
           conjuncts[i]->ToString() == best->where_text);
      if (!absorbed) {
        plan.scan.where_consumed = false;
        break;
      }
    }
    // A covered row is rebuilt by setting each key path on an empty object,
    // which cannot create the array an element path like `tags[0]` needs.
    plan.scan.covering =
        referenced.has_value() &&
        std::all_of(referenced->begin(), referenced->end(),
                    [&](const std::string& p) {
                      return p.find('[') == std::string::npos &&
                             std::find(best->key_paths.begin(),
                                       best->key_paths.end(),
                                       p) != best->key_paths.end();
                    });
    return plan;
  }

  // 3. Fall back to the primary index (full or id-ranged scan). Its key is
  // meta().id, which every entry carries, so it covers exactly the
  // statements that reference no document path. META().id range
  // predicates narrow the scan (this is what YCSB workload E does,
  // §10.1.2).
  for (const gsi::IndexDefinition& def : indexes) {
    if (!def.is_primary) continue;
    plan.scan.kind = ScanKind::kPrimaryScan;
    plan.scan.index_name = def.name;
    plan.scan.where_consumed = true;
    for (const auto& s : sargs) {
      if (s.has_value() && s->is_meta_id) NarrowRange(*s, &plan.scan.range);
      if (!s.has_value() || !s->is_meta_id || s->never_true) {
        plan.scan.where_consumed = false;
      }
    }
    plan.scan.covering = referenced.has_value() && referenced->empty();
    return plan;
  }
  return Status::PlanError(
      "no index available for keyspace " + from.keyspace +
      " (no sargable secondary index and no primary index); "
      "CREATE PRIMARY INDEX or add a suitable GSI index");
}

}  // namespace couchkv::n1ql
