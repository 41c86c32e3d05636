// End-to-end N1QL tests: planner access-path selection and full query
// execution against a live 3-node cluster with GSI.
#include <gtest/gtest.h>

#include "client/smart_client.h"
#include "n1ql/query_service.h"
#include "net/faulty_transport.h"
#include "stats/registry.h"

namespace couchkv::n1ql {
namespace {

using json::Value;

class N1qlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; ++i) cluster_.AddNode();
    cluster::BucketConfig cfg;
    cfg.name = "profiles";
    cfg.num_replicas = 1;
    ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
    gsi_ = std::make_shared<gsi::IndexService>(&cluster_);
    gsi_->Attach();
    views_ = std::make_shared<views::ViewEngine>(&cluster_);
    views_->Attach();
    service_ = std::make_unique<QueryService>(&cluster_, gsi_, views_);
    client_ = std::make_unique<client::SmartClient>(&cluster_, "profiles");
  }

  void LoadProfiles(int n) {
    for (int i = 0; i < n; ++i) {
      json::Value doc = json::Value::MakeObject();
      doc["name"] = Value::Str("user" + std::to_string(i));
      doc["email"] = Value::Str("u" + std::to_string(i) + "@example.com");
      doc["age"] = Value::Int(18 + i % 50);
      doc["city"] = Value::Str(i % 2 ? "SF" : "NY");
      ASSERT_TRUE(
          client_->UpsertJson("profile::" + std::to_string(i), doc).ok());
    }
  }

  QueryResult MustQuery(const std::string& q, QueryOptions opts = {}) {
    // request_plus by default so tests are deterministic.
    if (opts.consistency == gsi::ScanConsistency::kNotBounded) {
      opts.consistency = gsi::ScanConsistency::kRequestPlus;
    }
    auto r = service_->Execute(q, opts);
    EXPECT_TRUE(r.ok()) << q << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  cluster::Cluster cluster_;
  std::shared_ptr<gsi::IndexService> gsi_;
  std::shared_ptr<views::ViewEngine> views_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<client::SmartClient> client_;
};

TEST_F(N1qlTest, SelectWithoutFrom) {
  auto r = MustQuery("SELECT 1 + 2 AS three");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].Field("three").AsInt(), 3);
}

TEST_F(N1qlTest, UseKeysKeyScan) {
  LoadProfiles(10);
  auto r = MustQuery("SELECT name, email FROM profiles USE KEYS 'profile::3'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].Field("name").AsString(), "user3");
  // No index fetch involved: explain shows KeyScan.
  auto ex = MustQuery("EXPLAIN SELECT * FROM profiles USE KEYS 'profile::3'");
  EXPECT_EQ(ex.rows[0].GetPath("operators[0].#operator").AsString(),
            "KeyScan");
}

TEST_F(N1qlTest, UseKeysMultiple) {
  LoadProfiles(10);
  auto r = MustQuery(
      "SELECT name FROM profiles USE KEYS ['profile::1', 'profile::4']");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(N1qlTest, UseKeysMissingKeyYieldsNoRow) {
  LoadProfiles(2);
  auto r = MustQuery("SELECT * FROM profiles USE KEYS 'nope'");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(N1qlTest, NoIndexMeansPlanError) {
  LoadProfiles(2);
  auto r = service_->Execute("SELECT * FROM profiles WHERE age > 20");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kPlanError);
}

TEST_F(N1qlTest, PrimaryIndexEnablesFullScan) {
  LoadProfiles(20);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  auto r = MustQuery("SELECT name FROM profiles WHERE age >= 18");
  EXPECT_EQ(r.rows.size(), 20u);
  auto ex = MustQuery("EXPLAIN SELECT name FROM profiles WHERE age >= 18");
  EXPECT_EQ(ex.rows[0].GetPath("operators[0].#operator").AsString(),
            "PrimaryScan");
}

TEST_F(N1qlTest, SecondaryIndexScanChosen) {
  LoadProfiles(40);
  MustQuery("CREATE INDEX by_age ON profiles(age) USING GSI");
  auto ex = MustQuery("EXPLAIN SELECT name FROM profiles WHERE age = 25");
  EXPECT_EQ(ex.rows[0].GetPath("operators[0].#operator").AsString(),
            "IndexScan");
  EXPECT_EQ(ex.rows[0].GetPath("operators[0].index").AsString(), "by_age");
  auto r = MustQuery("SELECT name, age FROM profiles WHERE age = 25");
  ASSERT_FALSE(r.rows.empty());
  for (const Value& row : r.rows) {
    EXPECT_EQ(row.Field("age").AsInt(), 25);
  }
}

TEST_F(N1qlTest, CoveringIndexAvoidsFetch) {
  LoadProfiles(30);
  MustQuery("CREATE INDEX by_age ON profiles(age) USING GSI");
  auto ex = MustQuery("EXPLAIN SELECT age FROM profiles WHERE age > 40");
  EXPECT_TRUE(ex.rows[0].GetPath("operators[0].covering").AsBool());
  // Non-covered: selects name too.
  auto ex2 = MustQuery("EXPLAIN SELECT name, age FROM profiles WHERE age > 40");
  EXPECT_FALSE(ex2.rows[0].GetPath("operators[0].covering").AsBool());

  auto covered = MustQuery("SELECT age FROM profiles WHERE age > 40");
  EXPECT_EQ(covered.metrics.docs_fetched, 0u);  // §5.1.2: no fetch at all
  auto fetched = MustQuery("SELECT name, age FROM profiles WHERE age > 40");
  EXPECT_GT(fetched.metrics.docs_fetched, 0u);
  EXPECT_EQ(covered.rows.size(), fetched.rows.size());
}

TEST_F(N1qlTest, RangePredicatesCombine) {
  LoadProfiles(60);
  MustQuery("CREATE INDEX by_age ON profiles(age) USING GSI");
  auto r = MustQuery(
      "SELECT age FROM profiles WHERE age >= 30 AND age < 35 ORDER BY age");
  ASSERT_FALSE(r.rows.empty());
  EXPECT_EQ(r.rows.front().Field("age").AsInt(), 30);
  EXPECT_EQ(r.rows.back().Field("age").AsInt(), 34);
}

TEST_F(N1qlTest, PartialIndexUsedOnlyWhenImplied) {
  LoadProfiles(40);
  MustQuery(
      "CREATE INDEX over21 ON profiles(age) WHERE age > 21 USING GSI");
  // Query repeating the predicate can use it.
  auto ex = MustQuery(
      "EXPLAIN SELECT age FROM profiles WHERE age > 21 AND age = 30");
  EXPECT_EQ(ex.rows[0].GetPath("operators[0].index").AsString(), "over21");
  // Query without the predicate cannot (and has no other index).
  auto r = service_->Execute("SELECT age FROM profiles WHERE age = 30");
  EXPECT_FALSE(r.ok());
}

TEST_F(N1qlTest, OrderLimitOffset) {
  LoadProfiles(20);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  auto r = MustQuery(
      "SELECT name, age FROM profiles WHERE age >= 18 "
      "ORDER BY age DESC, name ASC LIMIT 5 OFFSET 2");
  ASSERT_EQ(r.rows.size(), 5u);
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_GE(r.rows[i - 1].Field("age").AsInt(),
              r.rows[i].Field("age").AsInt());
  }
}

TEST_F(N1qlTest, GroupByWithAggregates) {
  LoadProfiles(30);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  auto r = MustQuery(
      "SELECT city, COUNT(*) AS n, AVG(age) AS avg_age, MIN(age) AS min_age "
      "FROM profiles WHERE age >= 18 GROUP BY city ORDER BY city");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].Field("city").AsString(), "NY");
  EXPECT_EQ(r.rows[0].Field("n").AsInt(), 15);
  EXPECT_GT(r.rows[0].Field("avg_age").AsNumber(), 17.0);
  // HAVING filters groups.
  auto h = MustQuery(
      "SELECT city, COUNT(*) AS n FROM profiles WHERE age >= 18 "
      "GROUP BY city HAVING COUNT(*) > 100");
  EXPECT_TRUE(h.rows.empty());
}

TEST_F(N1qlTest, GlobalAggregateWithoutGroupBy) {
  LoadProfiles(25);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  auto r = MustQuery("SELECT COUNT(*) AS total FROM profiles WHERE age >= 0");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].Field("total").AsInt(), 25);
}

TEST_F(N1qlTest, JoinOnKeys) {
  // Orders reference customer keys: the only join N1QL allows (§3.2.4).
  cluster::BucketConfig cfg;
  cfg.name = "orders";
  cfg.num_replicas = 0;
  ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
  client::SmartClient orders(&cluster_, "orders");
  ASSERT_TRUE(client_->Upsert("cust::1", R"({"name":"Alice"})").ok());
  ASSERT_TRUE(client_->Upsert("cust::2", R"({"name":"Bob"})").ok());
  ASSERT_TRUE(
      orders.Upsert("ord::1", R"({"cust":"cust::1","total":10})").ok());
  ASSERT_TRUE(
      orders.Upsert("ord::2", R"({"cust":"cust::1","total":20})").ok());
  ASSERT_TRUE(
      orders.Upsert("ord::3", R"({"cust":"cust::9","total":30})").ok());

  auto r = MustQuery(
      "SELECT o.total, c.name FROM orders o "
      "USE KEYS ['ord::1','ord::2','ord::3'] "
      "INNER JOIN profiles c ON KEYS o.cust ORDER BY o.total");
  ASSERT_EQ(r.rows.size(), 2u);  // ord::3 has no matching customer
  EXPECT_EQ(r.rows[0].Field("name").AsString(), "Alice");

  auto lo = MustQuery(
      "SELECT o.total, c.name FROM orders o "
      "USE KEYS ['ord::1','ord::3'] "
      "LEFT JOIN profiles c ON KEYS o.cust ORDER BY o.total");
  ASSERT_EQ(lo.rows.size(), 2u);  // left outer keeps ord::3
  EXPECT_TRUE(lo.rows[1].Field("name").is_missing());
}

TEST_F(N1qlTest, NestCollectsIntoArray) {
  // The paper's §3.2.3 NEST: orders embedded as an array in the user.
  cluster::BucketConfig cfg;
  cfg.name = "po";
  cfg.num_replicas = 0;
  ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
  client::SmartClient po(&cluster_, "po");
  ASSERT_TRUE(po.Upsert("borkar123", R"({
      "personal_details": {"name": "Dipti"},
      "shipped_order_history": [
        {"order_id": "order::1"}, {"order_id": "order::2"}]})")
                  .ok());
  ASSERT_TRUE(po.Upsert("order::1", R"({"item":"couch","qty":1})").ok());
  ASSERT_TRUE(po.Upsert("order::2", R"({"item":"base","qty":2})").ok());

  auto r = MustQuery(
      "SELECT PO.personal_details, orders FROM po PO USE KEYS 'borkar123' "
      "NEST po AS orders "
      "ON KEYS ARRAY s.order_id FOR s IN PO.shipped_order_history END");
  ASSERT_EQ(r.rows.size(), 1u);
  const Value& orders = r.rows[0].Field("orders");
  ASSERT_TRUE(orders.is_array());
  EXPECT_EQ(orders.AsArray().size(), 2u);
  EXPECT_EQ(r.rows[0].GetPath("personal_details.name").AsString(), "Dipti");
}

TEST_F(N1qlTest, UnnestFlattensArrays) {
  cluster::BucketConfig cfg;
  cfg.name = "product";
  cfg.num_replicas = 0;
  ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
  client::SmartClient prod(&cluster_, "product");
  ASSERT_TRUE(
      prod.Upsert("p1", R"({"categories":["sofa","living"]})").ok());
  ASSERT_TRUE(
      prod.Upsert("p2", R"({"categories":["sofa","office"]})").ok());

  // The paper's §3.2.3 UNNEST example (distinct in-use categories).
  auto r = MustQuery(
      "SELECT DISTINCT categories FROM product USE KEYS ['p1','p2'] "
      "UNNEST product.categories AS categories ORDER BY categories");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0].Field("categories").AsString(), "living");
  EXPECT_EQ(r.rows[1].Field("categories").AsString(), "office");
  EXPECT_EQ(r.rows[2].Field("categories").AsString(), "sofa");
}

TEST_F(N1qlTest, DmlInsertUpdateDelete) {
  auto ins = MustQuery(
      R"(INSERT INTO profiles (KEY, VALUE)
         VALUES ("p::a", {"name": "A", "age": 1}),
                ("p::b", {"name": "B", "age": 2}))");
  EXPECT_EQ(ins.metrics.mutation_count, 2u);
  // Duplicate INSERT fails; UPSERT succeeds.
  EXPECT_FALSE(
      service_->Execute(
                  R"(INSERT INTO profiles (KEY, VALUE) VALUES ("p::a", 1))")
          .ok());
  MustQuery(R"(UPSERT INTO profiles (KEY, VALUE)
               VALUES ("p::a", {"name": "A2", "age": 10}))");
  auto up = MustQuery(
      "UPDATE profiles USE KEYS 'p::b' SET age = 99, extra.note = 'hi'");
  EXPECT_EQ(up.metrics.mutation_count, 1u);
  auto check = MustQuery("SELECT age, extra FROM profiles USE KEYS 'p::b'");
  EXPECT_EQ(check.rows[0].Field("age").AsInt(), 99);
  EXPECT_EQ(check.rows[0].GetPath("extra.note").AsString(), "hi");
  auto del = MustQuery("DELETE FROM profiles USE KEYS 'p::a'");
  EXPECT_EQ(del.metrics.mutation_count, 1u);
  EXPECT_TRUE(client_->Get("p::a").status().IsNotFound());
}

TEST_F(N1qlTest, UpdateWithWhereViaIndex) {
  LoadProfiles(20);
  MustQuery("CREATE INDEX by_age ON profiles(age) USING GSI");
  auto r = MustQuery("UPDATE profiles SET city = 'LA' WHERE age = 20");
  EXPECT_GT(r.metrics.mutation_count, 0u);
  auto check = MustQuery("SELECT city FROM profiles WHERE age = 20");
  for (const Value& row : check.rows) {
    EXPECT_EQ(row.Field("city").AsString(), "LA");
  }
}

// The Fig. 16 query reads only meta().id, which every primary-index entry
// carries, so the primary index covers it: no document is fetched.
TEST_F(N1qlTest, WorkloadEStyleQuery) {
  LoadProfiles(50);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  const std::string query =
      "SELECT meta().id AS id FROM profiles WHERE meta().id >= $1 LIMIT $2";
  QueryOptions opts;
  opts.params = {Value::Str("profile::2"), Value::Int(5)};
  auto r = MustQuery(query, opts);
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0].Field("id").AsString(), "profile::2");
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_LT(r.rows[i - 1].Field("id").AsString(),
              r.rows[i].Field("id").AsString());
  }
  EXPECT_EQ(r.metrics.docs_fetched, 0u);

  auto ex = MustQuery("EXPLAIN " + query, opts);
  const Value::Array& ops = ex.rows[0].Field("operators").AsArray();
  EXPECT_EQ(ops[0].Field("#operator").AsString(), "PrimaryScan");
  EXPECT_TRUE(ops[0].Field("covering").AsBool());
  for (const Value& op : ops) {
    EXPECT_NE(op.Field("#operator").AsString(), "Fetch");
  }

  // The same ids as the fetched form, which must read each body.
  auto fetched = MustQuery(
      "SELECT meta().id AS id, name FROM profiles WHERE meta().id >= $1 "
      "LIMIT $2",
      opts);
  EXPECT_EQ(fetched.metrics.docs_fetched, 5u);
  ASSERT_EQ(fetched.rows.size(), r.rows.size());
  for (size_t i = 0; i < r.rows.size(); ++i) {
    EXPECT_EQ(r.rows[i].Field("id").AsString(),
              fetched.rows[i].Field("id").AsString());
    EXPECT_TRUE(r.rows[i].Field("name").is_missing());
  }
}

TEST_F(N1qlTest, CoveredPrimaryScanSkipsDeletedIds) {
  LoadProfiles(10);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  ASSERT_TRUE(client_->Remove("profile::3").ok());
  auto r = MustQuery(
      "SELECT meta().id AS id FROM profiles WHERE meta().id >= 'profile::2'");
  EXPECT_EQ(r.metrics.docs_fetched, 0u);
  std::vector<std::string> ids;
  for (const Value& row : r.rows) ids.push_back(row.Field("id").AsString());
  EXPECT_EQ(ids, (std::vector<std::string>{"profile::2", "profile::4",
                                           "profile::5", "profile::6",
                                           "profile::7", "profile::8",
                                           "profile::9"}));
}

// The primary index keys every document by id, JSON or not, and the fetch
// path gives a non-JSON document a row too, so the covered and fetched forms
// of a query return the same ids. DML leaves non-JSON documents alone.
TEST_F(N1qlTest, NonJsonDocumentsHaveRowsCoveredOrFetched) {
  LoadProfiles(3);
  ASSERT_TRUE(client_->Upsert("profile::blob", "\x01not json").ok());
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  auto covered = MustQuery(
      "SELECT meta().id AS id FROM profiles WHERE meta().id >= 'profile::'");
  auto fetched = MustQuery(
      "SELECT meta().id AS id, name FROM profiles "
      "WHERE meta().id >= 'profile::'");
  EXPECT_EQ(covered.metrics.docs_fetched, 0u);
  EXPECT_EQ(fetched.metrics.docs_fetched, 4u);
  auto ids = [](const QueryResult& r) {
    std::vector<std::string> out;
    for (const Value& row : r.rows) out.push_back(row.Field("id").AsString());
    return out;
  };
  EXPECT_EQ(ids(covered), (std::vector<std::string>{
                              "profile::0", "profile::1", "profile::2",
                              "profile::blob"}));
  EXPECT_EQ(ids(fetched), ids(covered));
  // The blob's body reads as a placeholder, so its paths are MISSING.
  EXPECT_TRUE(fetched.rows[3].Field("name").is_missing());
  auto star = MustQuery("SELECT * FROM profiles USE KEYS 'profile::blob'");
  ASSERT_EQ(star.rows.size(), 1u);
  EXPECT_EQ(star.rows[0].Field("profiles").AsString(), "<binary (9 b)>");

  auto del = MustQuery("DELETE FROM profiles WHERE meta().id >= 'profile::'");
  EXPECT_EQ(del.metrics.mutation_count, 3u);
  EXPECT_TRUE(client_->Get("profile::blob").ok());
}

// A pushed-down LIMIT must count only rows the query returns. Non-JSON
// documents whose ids sort first sit at the front of the primary index; a
// fetched query with a LIMIT returns exactly the first rows of the same
// query without one.
TEST_F(N1qlTest, LimitPushdownOverNonJsonDocuments) {
  LoadProfiles(6);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        client_->Upsert("profile::!blob" + std::to_string(i), "\x01").ok());
  }
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  for (const std::string where : {"", " WHERE meta().id >= 'profile::'"}) {
    auto all = MustQuery("SELECT meta().id AS id, name FROM profiles" + where);
    ASSERT_EQ(all.rows.size(), 9u) << where;
    auto limited =
        MustQuery("SELECT meta().id AS id, name FROM profiles" + where +
                  " LIMIT 5");
    ASSERT_EQ(limited.rows.size(), 5u) << where;
    for (size_t i = 0; i < limited.rows.size(); ++i) {
      EXPECT_EQ(limited.rows[i].Field("id").AsString(),
                all.rows[i].Field("id").AsString());
    }
    EXPECT_EQ(MustQuery("SELECT name FROM profiles" + where + " LIMIT 5")
                  .rows.size(),
              5u)
        << where;
  }
}

// The primary index holds every document, so it cannot be partial.
TEST_F(N1qlTest, PrimaryIndexRejectsWhereClause) {
  auto r = service_->Execute(
      "CREATE PRIMARY INDEX ON profiles WHERE age > 1 USING GSI");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(N1qlTest, DmlOverMetaIdRangeSeesDocumentBodies) {
  LoadProfiles(10);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  auto up = MustQuery(
      "UPDATE profiles SET city = 'LA' WHERE meta().id >= 'profile::7'");
  EXPECT_EQ(up.metrics.mutation_count, 3u);
  for (int i : {7, 8, 9}) {
    auto doc = client_->GetJson("profile::" + std::to_string(i));
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->Field("city").AsString(), "LA");
    // The rest of the body survived the update.
    EXPECT_EQ(doc->Field("name").AsString(), "user" + std::to_string(i));
  }
  EXPECT_EQ(client_->GetJson("profile::6")->Field("city").AsString(), "NY");

  auto del = MustQuery(
      "DELETE FROM profiles WHERE meta().id >= 'profile::8' AND city = 'LA'");
  EXPECT_EQ(del.metrics.mutation_count, 2u);
  EXPECT_TRUE(client_->Get("profile::8").status().IsNotFound());
  EXPECT_TRUE(client_->Get("profile::9").status().IsNotFound());
  EXPECT_TRUE(client_->Get("profile::7").ok());
}

// Regression: NULL keys sort first in the index. A pushed-down LIMIT on a
// range with no lower bound used to count them, and the Filter then
// dropped them all.
TEST_F(N1qlTest, LimitPushdownSkipsNullKeys) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        client_->Upsert("null::" + std::to_string(i), R"({"age":null})").ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        client_->Upsert("three::" + std::to_string(i), R"({"age":3})").ok());
  }
  MustQuery("CREATE INDEX by_age ON profiles(age) USING GSI");
  EXPECT_EQ(MustQuery("SELECT age FROM profiles WHERE age < 5").rows.size(),
            5u);
  auto limited = MustQuery("SELECT age FROM profiles WHERE age < 5 LIMIT 5");
  ASSERT_EQ(limited.rows.size(), 5u);
  for (const Value& row : limited.rows) EXPECT_EQ(row.Field("age").AsInt(), 3);
}

// A composite key is the array [age, name]; the scan range bounds its
// leading element. Arrays sort after numbers, so the scan must compare that
// element, not the whole key, with a numeric bound.
TEST_F(N1qlTest, CompositeIndexRangeScans) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("p::" + std::to_string(100 + i),
                             R"({"age":)" + std::to_string(i) +
                                 R"(,"name":"n)" + std::to_string(i) +
                                 R"(","email":"e)" + std::to_string(i) +
                                 R"("})")
                    .ok());
  }
  MustQuery("CREATE INDEX by_an ON profiles(age, name) USING GSI");
  auto ages = [](const QueryResult& r) {
    std::vector<int64_t> out;
    for (const Value& row : r.rows) out.push_back(row.Field("age").AsInt());
    return out;
  };
  struct Case {
    std::string where;
    std::vector<int64_t> ages;
  };
  for (const Case& c : std::vector<Case>{
           {"age >= 5 AND age < 8", {5, 6, 7}},
           {"age = 4", {4}},
           {"age >= 17", {17, 18, 19}},
           {"age >= 17 LIMIT 2", {17, 18}},
           {"age > 17", {18, 19}},
           {"age <= 2", {0, 1, 2}},
           {"age < 2 LIMIT 1", {0}},
       }) {
    // Covered: the index holds age and name. Fetched: email is not in it.
    for (const std::string select :
         {"SELECT age, name FROM profiles WHERE ",
          "SELECT age, name, email FROM profiles WHERE "}) {
      auto ex = MustQuery("EXPLAIN " + select + c.where);
      EXPECT_EQ(ex.rows[0].GetPath("operators[0].index").AsString(), "by_an");
      auto r = MustQuery(select + c.where);
      EXPECT_EQ(ages(r), c.ages) << select << c.where;
      for (const Value& row : r.rows) {
        EXPECT_EQ(row.Field("name").AsString(),
                  "n" + std::to_string(row.Field("age").AsInt()));
      }
    }
  }
}

// A comparison with NULL (or MISSING) is never true, so no scan range can
// stand for it: the predicate stays in the Filter and the query returns no
// rows, whether the bound is a literal or a parameter. The index on age still
// serves such a query.
TEST_F(N1qlTest, NullBoundsReturnNoRows) {
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        client_->Upsert("null::" + std::to_string(i), R"({"age":null})").ok());
    ASSERT_TRUE(client_
                    ->Upsert("num::" + std::to_string(i),
                             R"({"age":)" + std::to_string(i) + "}")
                    .ok());
  }
  MustQuery("CREATE INDEX by_age ON profiles(age) USING GSI");
  QueryOptions opts;
  opts.params = {Value::Null()};
  auto expect_no_rows = [&](const std::string& q) {
    EXPECT_TRUE(MustQuery(q, opts).rows.empty()) << q;
    auto ex = MustQuery("EXPLAIN " + q, opts);
    bool has_filter = false;
    for (const Value& op : ex.rows[0].Field("operators").AsArray()) {
      if (op.Field("#operator").AsString() == "Filter") has_filter = true;
    }
    EXPECT_TRUE(has_filter) << q;
  };
  for (const char* q : {
           "SELECT age FROM profiles WHERE age = NULL",
           "SELECT age FROM profiles WHERE age >= NULL",
           "SELECT age FROM profiles WHERE age <= $1",
           "SELECT age FROM profiles WHERE age >= NULL LIMIT 2",
           "SELECT age FROM profiles WHERE age = NULL AND age >= 0",
       }) {
    expect_no_rows(q);
  }
  EXPECT_EQ(MustQuery("SELECT age FROM profiles WHERE age >= 0").rows.size(),
            3u);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  expect_no_rows("SELECT meta().id AS id FROM profiles WHERE meta().id >= $1");
  expect_no_rows(
      "SELECT meta().id AS id FROM profiles WHERE meta().id >= $1 LIMIT 2");
}

// The covered form of a query (the index alone answers it) and its fetched
// form (one more field forces the document fetch) return the same ids in
// the same order, over every kind of index the planner can pick. Without
// LIMIT/OFFSET the ids are those a primary scan plus Filter returns; with
// them, the matching slice of the unlimited result.
TEST_F(N1qlTest, CoveredAndFetchedFormsAgree) {
  for (int i = 0; i < 30; ++i) {
    char id[8];
    std::snprintf(id, sizeof(id), "d::%02d", i);
    Value doc = Value::MakeObject();
    doc["age"] = Value::Int(i % 10);  // duplicate keys order by doc id
    doc["name"] = Value::Str("n" + std::to_string(i % 7));
    doc["email"] = Value::Str(std::string(id) + "@example.com");
    ASSERT_TRUE(client_->UpsertJson(id, doc).ok());
  }
  // Mixed key types and NULL keys; "m::0" has no age and no index entry.
  for (const auto& [id, body] : std::vector<std::pair<std::string, std::string>>{
           {"s::0", R"({"age":"a","name":"s","email":"s0"})"},
           {"s::1", R"({"age":"b","name":"s","email":"s1"})"},
           {"b::0", R"({"age":false,"name":"b","email":"b0"})"},
           {"b::1", R"({"age":true,"name":"b","email":"b1"})"},
           {"o::0", R"({"age":[1,2],"name":"o","email":"o0"})"},
           {"z::0", R"({"age":null,"name":"z","email":"z0"})"},
           {"z::1", R"({"age":null,"name":"z","email":"z1"})"},
           {"m::0", R"({"name":"m","email":"m0"})"},
           {"n::0", "\x01not json"},  // a row in every meta().id form
       }) {
    ASSERT_TRUE(client_->Upsert(id, body).ok());
  }
  const std::string primary_ddl = "CREATE PRIMARY INDEX ON profiles USING GSI";
  MustQuery(primary_ddl);
  QueryOptions opts;
  opts.params = {Value::Int(5), Value::Null(), Value::Str("s::")};

  struct Where {
    std::string text;
    bool absorbed;  // the scan range proves it: the covered form skips Filter
  };
  struct IndexCase {
    std::string ddl;
    std::string index;
    std::vector<std::string> keys;  // the index keys, in key order
    std::vector<Where> wheres;
  };
  const std::vector<Where> on_age = {
      {"age = 3", true},
      {"age < 4", true},
      {"age <= 4", true},
      {"age > 6", true},
      {"age >= 6", true},
      {"3 >= age", true},
      {"age >= 2 AND age < 5", true},
      {"age = $1", true},
      {"age > 'a'", true},
      {"age < true", true},
      {"age >= false AND age <= 1", true},
      {"age = NULL", false},
      {"age >= $2", false},
      {"age >= 2 AND name = 'n3'", false},
  };
  const std::vector<Where> on_adults = {
      {"age >= 5", true},
      {"age >= 5 AND age < 8", true},
      {"age >= 5 AND age = 7", true},
      {"age >= 5 AND age > 'a'", true},
      {"age >= 5 AND age = NULL", false},
  };
  const std::vector<Where> on_id = {
      {"meta().id >= 'd::25'", true},
      {"meta().id < 'd::03'", true},
      {"meta().id = 'd::07'", true},
      {"meta().id > 'd::1' AND meta().id <= 'd::15'", true},
      {"meta().id >= $3", true},
      {"meta().id > 5", true},
      {"meta().id < [1]", true},
      {"meta().id >= $2", false},
  };
  const std::vector<IndexCase> cases = {
      {primary_ddl, "#primary", {}, on_id},
      {"CREATE INDEX by_age ON profiles(age) USING GSI", "by_age", {"age"},
       on_age},
      {"CREATE INDEX by_age_p ON profiles(age) USING GSI "
       "WITH {\"num_partitions\": 3}",
       "by_age_p", {"age"}, on_age},
      {"CREATE INDEX by_age_name ON profiles(age, name) USING GSI",
       "by_age_name", {"age", "name"}, on_age},
      {"CREATE INDEX adults ON profiles(age) WHERE age >= 5 USING GSI",
       "adults", {"age"}, on_adults},
      // Last: it replaces the plain primary index.
      {primary_ddl + " WITH {\"num_partitions\": 3}", "#primary", {}, on_id},
  };
  const std::vector<std::pair<std::string, std::pair<size_t, size_t>>> tails =
      {{" LIMIT 3", {0, 3}}, {" LIMIT 4 OFFSET 2", {2, 4}},
       {" OFFSET 5", {5, SIZE_MAX}}};

  auto ids = [](const QueryResult& r) {
    std::vector<std::string> out;
    for (const Value& row : r.rows) out.push_back(row.Field("id").AsString());
    return out;
  };
  auto has_filter = [](const QueryResult& ex) {
    for (const Value& op : ex.rows[0].Field("operators").AsArray()) {
      if (op.Field("#operator").AsString() == "Filter") return true;
    }
    return false;
  };

  // Reference results: a primary scan with the Filter, before any
  // secondary index exists.
  std::map<std::string, std::vector<std::string>> expected;
  for (const IndexCase& c : cases) {
    for (const Where& w : c.wheres) {
      auto ref = ids(MustQuery(
          "SELECT meta().id AS id, email FROM profiles WHERE " + w.text, opts));
      std::sort(ref.begin(), ref.end());
      expected[w.text] = ref;
    }
  }
  EXPECT_EQ(expected["age >= 2 AND age < 5"].size(), 9u);
  EXPECT_EQ(expected["age > 'a'"],
            (std::vector<std::string>{"o::0", "s::1"}));
  EXPECT_EQ(expected["age < true"], (std::vector<std::string>{"b::0"}));

  for (const IndexCase& c : cases) {
    if (c.ddl != primary_ddl) {
      if (c.index == "#primary") MustQuery("DROP INDEX profiles.`#primary`");
      MustQuery(c.ddl);
    }
    std::string keys;
    for (const std::string& k : c.keys) keys += ", " + k;
    // The id-only form builds its rows straight from the index entries
    // whenever the scan covers it and consumed the WHERE.
    const std::string ids_only = "SELECT meta().id AS id FROM ";
    const std::string covered = "SELECT meta().id AS id" + keys + " FROM ";
    const std::string fetched =
        "SELECT meta().id AS id" + keys + ", email FROM ";
    for (const Where& w : c.wheres) {
      const std::string from_where = "profiles WHERE " + w.text;
      SCOPED_TRACE(c.ddl + ": " + w.text);
      auto ex_ids = MustQuery("EXPLAIN " + ids_only + from_where, opts);
      auto ex_covered = MustQuery("EXPLAIN " + covered + from_where, opts);
      auto ex_fetched = MustQuery("EXPLAIN " + fetched + from_where, opts);
      if (w.absorbed) {
        EXPECT_EQ(ex_covered.rows[0].GetPath("operators[0].index").AsString(),
                  c.index);
        EXPECT_TRUE(ex_covered.rows[0].GetPath("operators[0].covering").AsBool());
        EXPECT_FALSE(
            ex_fetched.rows[0].GetPath("operators[0].covering").AsBool());
      }
      EXPECT_EQ(ex_ids.rows[0].GetPath("operators[0].id_rows").AsBool(),
                w.absorbed);
      EXPECT_EQ(ex_covered.rows[0].GetPath("operators[0].id_rows").AsBool(),
                w.absorbed && c.keys.empty());
      EXPECT_FALSE(ex_fetched.rows[0].GetPath("operators[0].id_rows").AsBool());
      EXPECT_EQ(has_filter(ex_covered), !w.absorbed);
      EXPECT_TRUE(has_filter(ex_fetched));

      auto full = MustQuery(covered + from_where, opts);
      auto full_ids = ids(full);
      EXPECT_EQ(full_ids, ids(MustQuery(fetched + from_where, opts)));
      EXPECT_EQ(full_ids, ids(MustQuery(ids_only + from_where, opts)));
      if (w.absorbed) {
        EXPECT_EQ(full.metrics.docs_fetched, 0u);
      }
      auto sorted = full_ids;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, expected[w.text]);
      // An index scan returns entries in (key, doc_id) order, merged across
      // partitions.
      if (w.absorbed) {
        for (size_t i = 1; i < full.rows.size(); ++i) {
          Value::Array a, b;
          for (const std::string& k : c.keys) {
            a.push_back(full.rows[i - 1].Field(k));
            b.push_back(full.rows[i].Field(k));
          }
          a.push_back(Value::Str(full_ids[i - 1]));
          b.push_back(Value::Str(full_ids[i]));
          EXPECT_LT(Value::Compare(Value::MakeArray(std::move(a)),
                                   Value::MakeArray(std::move(b))),
                    0)
              << full_ids[i - 1] << " before " << full_ids[i];
        }
      }

      for (const auto& [tail, slice] : tails) {
        const auto& [offset, limit] = slice;
        std::vector<std::string> want;
        for (size_t i = offset; i < full_ids.size() && i - offset < limit;
             ++i) {
          want.push_back(full_ids[i]);
        }
        EXPECT_EQ(ids(MustQuery(ids_only + from_where + tail, opts)), want)
            << tail;
        EXPECT_EQ(ids(MustQuery(covered + from_where + tail, opts)), want)
            << tail;
        EXPECT_EQ(ids(MustQuery(fetched + from_where + tail, opts)), want)
            << tail;
      }
    }
    if (c.index != "#primary") MustQuery("DROP INDEX profiles." + c.index);
  }
}

// An index keyed on an array element cannot rebuild its rows (the element
// has no array to live in), so it never covers a query.
TEST_F(N1qlTest, SubscriptedIndexKeyIsNotCovering) {
  ASSERT_TRUE(client_->Upsert("t::0", R"({"tags":["x","y"]})").ok());
  ASSERT_TRUE(client_->Upsert("t::1", R"({"tags":["y"]})").ok());
  MustQuery("CREATE INDEX first_tag ON profiles(tags[0]) USING GSI");
  const std::string q = "SELECT tags[0] AS t FROM profiles WHERE tags[0] = 'x'";
  auto ex = MustQuery("EXPLAIN " + q);
  EXPECT_EQ(ex.rows[0].GetPath("operators[0].index").AsString(), "first_tag");
  auto r = MustQuery(q);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].Field("t").AsString(), "x");
}

// A Get that fails for any reason but NotFound fails the query: a partial
// result would look like a complete one.
TEST_F(N1qlTest, FetchFailureFailsQueryInsteadOfDroppingRows) {
  LoadProfiles(10);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  net::FaultyTransport faulty(/*seed=*/7);
  cluster_.set_transport(&faulty);
  // Clients can no longer reach any data node; the index service can.
  faulty.SetClientFaults(net::LinkFaults{.blocked = true});
  QueryOptions opts;
  opts.consistency = gsi::ScanConsistency::kRequestPlus;
  auto fetched = service_->Execute(
      "SELECT name FROM profiles WHERE meta().id >= 'profile::5' LIMIT 3",
      opts);
  EXPECT_FALSE(fetched.ok());
  EXPECT_FALSE(fetched.status().IsNotFound());
  // The covered form never touches the data service.
  auto covered = service_->Execute(
      "SELECT meta().id FROM profiles WHERE meta().id >= 'profile::5' LIMIT 3",
      opts);
  EXPECT_TRUE(covered.ok()) << covered.status().ToString();
  if (covered.ok()) {
    EXPECT_EQ(covered->rows.size(), 3u);
  }
  cluster_.set_transport(nullptr);
}

TEST_F(N1qlTest, AnySatisfiesFilter) {
  cluster::BucketConfig cfg;
  cfg.name = "orders2";
  cfg.num_replicas = 0;
  ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
  client::SmartClient orders(&cluster_, "orders2");
  ASSERT_TRUE(orders.Upsert("o1", R"({"items":[{"sku":"a"},{"sku":"b"}]})")
                  .ok());
  ASSERT_TRUE(orders.Upsert("o2", R"({"items":[{"sku":"c"}]})").ok());
  auto r = MustQuery(
      "SELECT META(o).id AS id FROM orders2 o USE KEYS ['o1','o2'] "
      "WHERE ANY i IN o.items SATISFIES i.sku = 'b' END");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].Field("id").AsString(), "o1");
}

TEST_F(N1qlTest, ScanConsistencyNotBoundedVsRequestPlus) {
  MustQuery("CREATE INDEX by_age ON profiles(age) USING GSI");
  cluster_.Quiesce();
  ASSERT_TRUE(client_->Upsert("fresh", R"({"age":123})").ok());
  // request_plus must see the write that preceded the query (§3.2.3).
  QueryOptions plus;
  plus.consistency = gsi::ScanConsistency::kRequestPlus;
  auto r = service_->Execute(
      "SELECT age FROM profiles WHERE age = 123", plus);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
}

TEST_F(N1qlTest, CreateIndexUsingViewAndDrop) {
  LoadProfiles(5);
  MustQuery("CREATE INDEX email_view ON profiles(email) USING VIEW");
  // The view exists and is queryable through the view engine.
  views::ViewQueryOptions vopts;
  auto vr = views_->Query("profiles", "email_view", vopts,
                          views::Staleness::kFalse);
  ASSERT_TRUE(vr.ok());
  EXPECT_EQ(vr->rows.size(), 5u);
  MustQuery("DROP INDEX profiles.email_view");
  EXPECT_FALSE(views_->Query("profiles", "email_view", vopts).ok());
}

TEST_F(N1qlTest, MdsNoQueryNodeRefusesQueries) {
  cluster::Cluster c;
  c.AddNode(cluster::kDataService | cluster::kIndexService);
  cluster::BucketConfig cfg;
  cfg.name = "b";
  cfg.num_replicas = 0;
  ASSERT_TRUE(c.CreateBucket(cfg).ok());
  auto g = std::make_shared<gsi::IndexService>(&c);
  g->Attach();
  auto v = std::make_shared<views::ViewEngine>(&c);
  v->Attach();
  QueryService qs(&c, g, v);
  auto r = qs.Execute("SELECT 1");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

// The parsed form of a text is reused: a second run of the same text is a
// cache hit, and new $n values still give their own rows, because the plan
// is made per call.
TEST_F(N1qlTest, RepeatedTextHitsTheStatementCache) {
  LoadProfiles(10);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  std::shared_ptr<stats::Scope> n1ql = stats::Registry::Global().GetScope("n1ql");
  stats::Counter* hits = n1ql->GetCounter("statement_cache_hits");
  stats::Counter* misses = n1ql->GetCounter("statement_cache_misses");
  const uint64_t hits0 = hits->Value(), misses0 = misses->Value();
  const std::string q =
      "SELECT meta().id AS id FROM profiles WHERE meta().id >= $1 LIMIT $2";
  auto ids = [&](const std::string& from, int n) {
    QueryOptions opts;
    opts.params = {Value::Str(from), Value::Int(n)};
    std::vector<std::string> out;
    for (const Value& row : MustQuery(q, opts).rows) {
      out.push_back(row.Field("id").AsString());
    }
    return out;
  };
  EXPECT_EQ(ids("profile::3", 2),
            (std::vector<std::string>{"profile::3", "profile::4"}));
  EXPECT_EQ(misses->Value() - misses0, 1u);
  EXPECT_EQ(hits->Value() - hits0, 0u);
  EXPECT_EQ(ids("profile::7", 3),
            (std::vector<std::string>{"profile::7", "profile::8",
                                      "profile::9"}));
  EXPECT_EQ(ids("profile::3", 2),
            (std::vector<std::string>{"profile::3", "profile::4"}));
  EXPECT_EQ(misses->Value() - misses0, 1u);
  EXPECT_EQ(hits->Value() - hits0, 2u);
}

TEST_F(N1qlTest, ParseErrorIsNotCached) {
  std::shared_ptr<stats::Scope> n1ql = stats::Registry::Global().GetScope("n1ql");
  stats::Counter* hits = n1ql->GetCounter("statement_cache_hits");
  stats::Counter* misses = n1ql->GetCounter("statement_cache_misses");
  const uint64_t hits0 = hits->Value(), misses0 = misses->Value();
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(service_->Execute("SELEC 1 FROM profiles").ok());
  }
  EXPECT_EQ(misses->Value() - misses0, 2u);
  EXPECT_EQ(hits->Value() - hits0, 0u);
}

// Id rows are named as the projection names meta().id, and only an
// id-only covering statement gets them.
TEST_F(N1qlTest, IdRowsFollowTheProjection) {
  LoadProfiles(3);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  auto r = MustQuery("SELECT META(p).id FROM profiles p LIMIT 1 OFFSET 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].ToJson(), R"({"$1":"profile::1"})");
  for (const std::string q : {
           "SELECT meta().id FROM profiles ORDER BY meta().id",
           "SELECT DISTINCT meta().id FROM profiles",
           "SELECT meta().id, meta().id AS again FROM profiles",
           "SELECT meta().cas FROM profiles",
           "SELECT COUNT(*) FROM profiles",
       }) {
    EXPECT_FALSE(MustQuery("EXPLAIN " + q)
                     .rows[0]
                     .GetPath("operators[0].id_rows")
                     .AsBool())
        << q;
  }
  EXPECT_TRUE(MustQuery("EXPLAIN SELECT meta().id FROM profiles")
                  .rows[0]
                  .GetPath("operators[0].id_rows")
                  .AsBool());
}

TEST_F(N1qlTest, ExplainListsOperatorPipeline) {
  LoadProfiles(5);
  MustQuery("CREATE PRIMARY INDEX ON profiles USING GSI");
  auto ex = MustQuery(
      "EXPLAIN SELECT city, COUNT(*) FROM profiles WHERE age > 1 "
      "GROUP BY city ORDER BY city LIMIT 2");
  const Value& ops = ex.rows[0].Field("operators");
  ASSERT_TRUE(ops.is_array());
  // Scan, Fetch, Filter, Group, InitialProject, Sort, Limit, FinalProject.
  EXPECT_EQ(ops.AsArray().size(), 8u);
}

}  // namespace
}  // namespace couchkv::n1ql
