// Unit tests for the N1QL planner: access-path selection, sargable range
// extraction, covering detection, partial-index implication, LIMIT
// pushdown eligibility — all without a live cluster.
#include <gtest/gtest.h>

#include "n1ql/parser.h"
#include "n1ql/planner.h"

namespace couchkv::n1ql {
namespace {

using json::Value;

SelectStatement Parse(const std::string& q) {
  auto stmt = ParseStatement(q);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return stmt->select;
}

gsi::IndexDefinition Index(const std::string& name,
                           std::vector<std::string> paths,
                           bool primary = false) {
  gsi::IndexDefinition def;
  def.name = name;
  def.bucket = "b";
  def.key_paths = std::move(paths);
  def.is_primary = primary;
  return def;
}

TEST(PlannerTest, UseKeysAlwaysWins) {
  auto stmt = Parse("SELECT * FROM b USE KEYS 'k' WHERE age = 1");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.kind, ScanKind::kKeyScan);
}

TEST(PlannerTest, NoFromIsNoScan) {
  auto stmt = Parse("SELECT 1");
  auto plan = PlanSelect(stmt, {}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.kind, ScanKind::kNoScan);
}

TEST(PlannerTest, NoIndexesIsPlanError) {
  auto stmt = Parse("SELECT * FROM b WHERE age = 1");
  auto plan = PlanSelect(stmt, {}, {});
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kPlanError);
}

TEST(PlannerTest, EqualityProducesPointRange) {
  auto stmt = Parse("SELECT age FROM b WHERE age = 30");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.kind, ScanKind::kIndexScan);
  ASSERT_TRUE(plan->scan.range.lo.has_value());
  ASSERT_TRUE(plan->scan.range.hi.has_value());
  EXPECT_EQ(plan->scan.range.lo->AsInt(), 30);
  EXPECT_EQ(plan->scan.range.hi->AsInt(), 30);
}

TEST(PlannerTest, RangePredicatesCombineBounds) {
  auto stmt = Parse("SELECT age FROM b WHERE age >= 10 AND age < 20");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.range.lo->AsInt(), 10);
  EXPECT_TRUE(plan->scan.range.lo_inclusive);
  EXPECT_EQ(plan->scan.range.hi->AsInt(), 20);
  EXPECT_FALSE(plan->scan.range.hi_inclusive);
  EXPECT_TRUE(plan->scan.where_consumed);
}

TEST(PlannerTest, FlippedComparisonNormalized) {
  // 10 <= age  ==>  age >= 10
  auto stmt = Parse("SELECT age FROM b WHERE 10 <= age");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.kind, ScanKind::kIndexScan);
  EXPECT_EQ(plan->scan.range.lo->AsInt(), 10);
}

TEST(PlannerTest, ParameterBoundsResolved) {
  auto stmt = Parse("SELECT age FROM b WHERE age > $1");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {Value::Int(42)});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.range.lo->AsInt(), 42);
  EXPECT_FALSE(plan->scan.range.lo_inclusive);
}

TEST(PlannerTest, CoveringDetection) {
  auto covered = Parse("SELECT age FROM b WHERE age > 5 ORDER BY age");
  auto plan = PlanSelect(covered, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->scan.covering);

  auto uncovered = Parse("SELECT age, name FROM b WHERE age > 5");
  plan = PlanSelect(uncovered, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->scan.covering);

  auto star = Parse("SELECT * FROM b WHERE age > 5");
  plan = PlanSelect(star, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->scan.covering);

  // A covered row is rebuilt from the index keys by path, which cannot
  // create the array an element path such as tags[0] lives in.
  auto element = Parse("SELECT tags[0] FROM b WHERE tags[0] = 'x'");
  plan = PlanSelect(element, {Index("first_tag", {"tags[0]"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.index_name, "first_tag");
  EXPECT_FALSE(plan->scan.covering);
}

TEST(PlannerTest, CompositeIndexCoversSecondKey) {
  auto stmt = Parse("SELECT city FROM b WHERE age = 30");
  auto plan = PlanSelect(stmt, {Index("by_age_city", {"age", "city"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.kind, ScanKind::kIndexScan);
  EXPECT_TRUE(plan->scan.covering);
}

TEST(PlannerTest, MetaIdCoveredByIndexScan) {
  // meta().id rides along with every index entry.
  auto stmt = Parse("SELECT META(b).id, age FROM b WHERE age = 1");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->scan.covering);
}

TEST(PlannerTest, PartialIndexRequiresPredicateRestated) {
  gsi::IndexDefinition partial = Index("over21", {"age"});
  auto where = ParseExpression("(age > 21)").value();
  partial.where_text = where->ToString();

  auto with = Parse("SELECT age FROM b WHERE age > 21 AND age = 30");
  auto plan = PlanSelect(with, {partial}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.index_name, "over21");

  auto without = Parse("SELECT age FROM b WHERE age = 30");
  EXPECT_FALSE(PlanSelect(without, {partial}, {}).ok());
}

TEST(PlannerTest, PrimaryFallbackForUnsargablePredicate) {
  auto stmt = Parse("SELECT name FROM b WHERE LOWER(name) = 'x'");
  auto plan = PlanSelect(
      stmt, {Index("by_age", {"age"}), Index("#primary", {}, true)}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.kind, ScanKind::kPrimaryScan);
  EXPECT_FALSE(plan->scan.where_consumed);
}

TEST(PlannerTest, MetaIdRangeOnPrimary) {
  auto stmt = Parse("SELECT META(b).id FROM b WHERE META(b).id >= 'user1'");
  auto plan = PlanSelect(stmt, {Index("#primary", {}, true)}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.kind, ScanKind::kPrimaryScan);
  ASSERT_TRUE(plan->scan.range.lo.has_value());
  EXPECT_EQ(plan->scan.range.lo->AsString(), "user1");
  EXPECT_TRUE(plan->scan.where_consumed);  // LIMIT pushdown eligible
}

TEST(PlannerTest, PrimaryScanCoversMetaIdOnlyQuery) {
  auto stmt = Parse(
      "SELECT META(b).id AS id FROM b WHERE META(b).id >= 'user1' LIMIT 5");
  auto plan = PlanSelect(stmt, {Index("#primary", {}, true)}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.kind, ScanKind::kPrimaryScan);
  EXPECT_TRUE(plan->scan.covering);
  // Unqualified meta() and a full scan with no WHERE are covered too.
  for (const char* q : {"SELECT meta().id FROM b WHERE meta().id < 'x'",
                        "SELECT COUNT(*) AS n FROM b"}) {
    plan = PlanSelect(Parse(q), {Index("#primary", {}, true)}, {});
    ASSERT_TRUE(plan.ok()) << q;
    EXPECT_TRUE(plan->scan.covering) << q;
  }
}

TEST(PlannerTest, PrimaryScanNotCoveringWhenBodyNeeded) {
  for (const char* q : {
           "SELECT * FROM b WHERE META(b).id >= 'a'",
           "SELECT META(b).cas FROM b WHERE META(b).id >= 'a'",
           "SELECT META(b).id FROM b WHERE META(b).id >= 'a' AND age > 1",
           "SELECT name FROM b WHERE META(b).id >= 'a'",
           "SELECT b FROM b WHERE META(b).id >= 'a'",
           "SELECT META(b).id FROM b WHERE META(b).id >= 'a' ORDER BY name",
           "SELECT CASE WHEN META(b).id > 'a' THEN name END AS n FROM b "
           "WHERE META(b).id >= 'a'",
           "SELECT META(b).id FROM b WHERE META(b).id >= 'a' "
           "GROUP BY META(b).id HAVING MAX(age) > 1",
           "SELECT META(b).id FROM b JOIN c ON KEYS b.ref "
           "WHERE META(b).id >= 'a'",
       }) {
    auto plan = PlanSelect(Parse(q), {Index("#primary", {}, true)}, {});
    ASSERT_TRUE(plan.ok()) << q;
    EXPECT_EQ(plan->scan.kind, ScanKind::kPrimaryScan) << q;
    EXPECT_FALSE(plan->scan.covering) << q;
  }
}

TEST(PlannerTest, ExplainListsFetchOnlyWhenNotCovered) {
  auto count_fetch = [](const Value& described) {
    int n = 0;
    for (const Value& op : described.Field("operators").AsArray()) {
      if (op.Field("#operator").AsString() == "Fetch") ++n;
    }
    return n;
  };
  auto covered = Parse("SELECT META(b).id FROM b WHERE META(b).id >= 'a'");
  auto plan = PlanSelect(covered, {Index("#primary", {}, true)}, {});
  ASSERT_TRUE(plan.ok());
  Value described = plan->Describe(covered);
  EXPECT_TRUE(described.GetPath("operators[0].covering").AsBool());
  EXPECT_EQ(described.GetPath("operators[0].range").AsString(), ">= \"a\"");
  EXPECT_EQ(count_fetch(described), 0);

  auto fetched = Parse("SELECT name FROM b WHERE META(b).id >= 'a'");
  plan = PlanSelect(fetched, {Index("#primary", {}, true)}, {});
  ASSERT_TRUE(plan.ok());
  described = plan->Describe(fetched);
  EXPECT_FALSE(described.GetPath("operators[0].covering").AsBool());
  EXPECT_EQ(count_fetch(described), 1);
}

TEST(PlannerTest, UpperBoundOnlyRangeStartsAboveNull) {
  auto stmt = Parse("SELECT age FROM b WHERE age < 5 LIMIT 5");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->scan.range.lo.has_value());
  EXPECT_TRUE(plan->scan.range.lo->is_null());
  EXPECT_FALSE(plan->scan.range.lo_inclusive);
  EXPECT_EQ(plan->scan.range.hi->AsInt(), 5);
  EXPECT_TRUE(plan->scan.where_consumed);
}

TEST(PlannerTest, RepeatedBoundsIntersect) {
  // The looser predicate comes last; the range must still be the tighter.
  auto stmt = Parse("SELECT age FROM b WHERE age >= 10 AND age >= 5");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.range.lo->AsInt(), 10);
  EXPECT_TRUE(plan->scan.range.lo_inclusive);

  // On a tie the exclusive bound wins, whichever comes first.
  stmt = Parse(
      "SELECT META(b).id FROM b WHERE META(b).id > 'k' AND META(b).id >= 'k'"
      " AND META(b).id <= 'z' AND META(b).id < 'z'");
  plan = PlanSelect(stmt, {Index("#primary", {}, true)}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.range.lo->AsString(), "k");
  EXPECT_FALSE(plan->scan.range.lo_inclusive);
  EXPECT_EQ(plan->scan.range.hi->AsString(), "z");
  EXPECT_FALSE(plan->scan.range.hi_inclusive);
}

// A comparison with NULL or MISSING is never true: it may still pick the
// index, but the scan range cannot stand for it, so the WHERE is not
// consumed and the Filter runs.
TEST(PlannerTest, NullOrMissingBoundIsNeverConsumed) {
  const std::vector<gsi::IndexDefinition> indexes = {
      Index("by_age", {"age"}), Index("#primary", {}, true)};
  const std::vector<Value> params = {Value::Null(), Value::Missing(),
                                     Value::Int(3)};
  for (const char* q : {
           "SELECT age FROM b WHERE age = NULL",
           "SELECT age FROM b WHERE age >= NULL",
           "SELECT age FROM b WHERE NULL < age",
           "SELECT age FROM b WHERE age = $1",
           "SELECT age FROM b WHERE age <= $2",
           "SELECT age FROM b WHERE age > $3 AND age < $1",
           "SELECT META(b).id FROM b WHERE META(b).id >= $1",
           "SELECT META(b).id FROM b WHERE META(b).id < $2",
       }) {
    auto stmt = Parse(q);
    auto plan = PlanSelect(stmt, indexes, params);
    ASSERT_TRUE(plan.ok()) << q;
    EXPECT_TRUE(plan->scan.covering) << q;
    EXPECT_FALSE(plan->scan.where_consumed) << q;
    EXPECT_TRUE(plan->RunsFilter(stmt)) << q;
  }
  // The same statements with a real bound are consumed.
  for (const char* q : {"SELECT age FROM b WHERE age = $3",
                        "SELECT META(b).id FROM b WHERE META(b).id >= $3"}) {
    auto stmt = Parse(q);
    auto plan = PlanSelect(stmt, indexes, params);
    ASSERT_TRUE(plan.ok()) << q;
    EXPECT_TRUE(plan->scan.where_consumed) << q;
    EXPECT_FALSE(plan->RunsFilter(stmt)) << q;
  }
}

// EXPLAIN lists the Filter exactly when the executor runs it: a covering
// scan that consumed the WHERE skips it; a fetched scan never does, since
// a fetched body can be newer than the index entry that found it.
TEST(PlannerTest, ExplainListsFilterOnlyWhenItRuns) {
  auto count_filter = [](const Value& described) {
    int n = 0;
    for (const Value& op : described.Field("operators").AsArray()) {
      if (op.Field("#operator").AsString() == "Filter") ++n;
    }
    return n;
  };
  struct Case {
    const char* query;
    bool runs_filter;
  };
  for (const Case& c : {
           Case{"SELECT META(b).id FROM b WHERE META(b).id >= 'a'", false},
           Case{"SELECT age FROM b WHERE age >= 10 AND age < 20", false},
           Case{"SELECT age FROM b WHERE age = 10 LIMIT 3", false},
           Case{"SELECT city FROM b WHERE age = 10", false},
           Case{"SELECT META(b).id FROM b", false},
           Case{"SELECT name FROM b WHERE META(b).id >= 'a'", true},
           Case{"SELECT email FROM b WHERE age = 10", true},
           Case{"SELECT age FROM b WHERE age > 5 AND city = 'x'", true},
           Case{"SELECT age FROM b WHERE age > 5 AND META(b).id > 'a'", true},
           Case{"SELECT META(b).id FROM b WHERE LOWER(META(b).id) = 'a'",
                true},
       }) {
    auto stmt = Parse(c.query);
    auto plan = PlanSelect(
        stmt, {Index("by_age_city", {"age", "city"}), Index("#primary", {}, true)},
        {});
    ASSERT_TRUE(plan.ok()) << c.query;
    EXPECT_EQ(plan->RunsFilter(stmt), c.runs_filter) << c.query;
    EXPECT_EQ(count_filter(plan->Describe(stmt)), c.runs_filter ? 1 : 0)
        << c.query;
  }
}

TEST(PlannerTest, ResidualPredicateBlocksPushdown) {
  auto stmt = Parse("SELECT age FROM b WHERE age > 5 AND name = 'x'");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.kind, ScanKind::kIndexScan);
  EXPECT_FALSE(plan->scan.where_consumed);
}

TEST(PlannerTest, EqualityPreferredOverRangeIndex) {
  auto stmt = Parse("SELECT x FROM b WHERE age = 1 AND height > 2");
  auto plan = PlanSelect(
      stmt, {Index("by_height", {"height"}), Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.index_name, "by_age");  // equality scores higher
}

TEST(PlannerTest, AggregatesDetected) {
  auto stmt = Parse("SELECT COUNT(*), MAX(age) FROM b WHERE age > 0");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->has_aggregates);
  EXPECT_EQ(plan->aggregate_exprs.size(), 2u);
}

TEST(PlannerTest, AliasQualifiedPathsMatchIndex) {
  auto stmt = Parse("SELECT p.age FROM b AS p WHERE p.age = 5");
  auto plan = PlanSelect(stmt, {Index("by_age", {"age"})}, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan.kind, ScanKind::kIndexScan);
  EXPECT_TRUE(plan->scan.covering);
}

TEST(PlannerTest, RelativePathText) {
  auto expr = ParseExpression("p.addr.city").value();
  EXPECT_EQ(RelativePathText(*expr, "p").value(), "addr.city");
  EXPECT_EQ(RelativePathText(*expr, "q").value(), "p.addr.city");
  auto idx = ParseExpression("p.tags[0]").value();
  EXPECT_EQ(RelativePathText(*idx, "p").value(), "tags[0]");
  auto lit = ParseExpression("42").value();
  EXPECT_FALSE(RelativePathText(*lit, "p").has_value());
}

}  // namespace
}  // namespace couchkv::n1ql
