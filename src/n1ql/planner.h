// The N1QL query planner (paper §4.5.3): picks the access path for each
// keyspace — KeyScan (USE KEYS), IndexScan (a sargable secondary index) or
// PrimaryScan (a full or meta().id-ranged scan of the primary index), the
// last two possibly covering — and records it in a QueryPlan the executor
// then runs.
#ifndef COUCHKV_N1QL_PLANNER_H_
#define COUCHKV_N1QL_PLANNER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "gsi/index_service.h"
#include "n1ql/ast.h"

namespace couchkv::n1ql {

enum class ScanKind { kKeyScan, kIndexScan, kPrimaryScan, kNoScan };

const char* ScanKindName(ScanKind k);

// The chosen access path for the FROM keyspace.
struct ScanChoice {
  ScanKind kind = ScanKind::kNoScan;  // kNoScan: FROM-less SELECT
  // kKeyScan
  ExprPtr use_keys;
  // kIndexScan / kPrimaryScan
  std::string index_name;
  gsi::ScanRange range;  // bounds derived from sargable predicates
  // True when the index entries alone answer the query, so no document is
  // fetched. The primary index covers statements that read only meta().id.
  bool covering = false;
  std::vector<std::string> index_key_paths;  // for covering reconstruction
  // True when the WHERE clause is entirely absorbed by the scan range:
  // every conjunct compares the index's leading key (or meta().id on the
  // primary index) with a constant that is neither NULL nor MISSING, or
  // restates a partial index's predicate. Every entry the scan returns then
  // satisfies the WHERE, so LIMIT can be pushed down into the scan.
  bool where_consumed = false;
};

struct QueryPlan {
  ScanChoice scan;
  // True when the statement has aggregates / GROUP BY (executor runs the
  // Group operator).
  bool has_aggregates = false;
  // Normalized texts of aggregate calls appearing anywhere in the query.
  std::vector<ExprPtr> aggregate_exprs;

  // True when the executor must evaluate the WHERE on each row. A covering
  // scan that consumed the WHERE skips it: its rows are rebuilt from the
  // very index keys the scan range bounded. A fetched row keeps the Filter,
  // because its body can be newer than the index entry that found it.
  bool RunsFilter(const SelectStatement& stmt) const {
    return stmt.where != nullptr && !(scan.covering && scan.where_consumed);
  }

  // True when every entry the scan returns is an output row, in scan order:
  // the scan consumed the WHERE and no join, GROUP BY, aggregate, ORDER BY
  // or DISTINCT follows. LIMIT and OFFSET then push into the scan.
  bool KeepsScanRows(const SelectStatement& stmt) const;

  // True when the output rows are built straight from the index entries:
  // a covering scan keeps its rows and the statement projects meta().id
  // alone, so each row is {name: entry.doc_id} with no Row or projection.
  bool IdRows(const SelectStatement& stmt) const;

  // Rendered plan for EXPLAIN (mirrors Figure 11's operator list).
  json::Value Describe(const SelectStatement& stmt) const;
};

// If `expr` is a path rooted at `alias` (or unqualified), returns its text
// relative to the document root ("a.b[0]"); otherwise nullopt.
std::optional<std::string> RelativePathText(const Expr& expr,
                                            const std::string& alias);

// Collects every aggregate call in the statement.
void CollectAggregates(const SelectStatement& stmt,
                       std::vector<ExprPtr>* out);

// Chooses the access path for `stmt` given the indexes defined on the
// bucket. `params` lets sargable bounds reference positional parameters.
StatusOr<QueryPlan> PlanSelect(const SelectStatement& stmt,
                               const std::vector<gsi::IndexDefinition>& indexes,
                               const std::vector<json::Value>& params);

}  // namespace couchkv::n1ql

#endif  // COUCHKV_N1QL_PLANNER_H_
