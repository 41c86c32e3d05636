// Tests for the GSI service: key projection, partitions, partial and array
// indexes, scan consistency, memory-optimized mode, topology changes.
#include <gtest/gtest.h>

#include "client/smart_client.h"
#include "gsi/index_service.h"

namespace couchkv::gsi {
namespace {

using json::Value;

// --- ProjectKeys (the Projector's evaluation) ---

kv::Document Version(std::string key, std::string value) {
  kv::Document doc;
  doc.key = std::move(key);
  doc.value = std::move(value);
  return doc;
}

TEST(ProjectKeysTest, SimpleKey) {
  IndexDefinition def;
  def.key_paths = {"email"};
  auto keys = ProjectKeys(def, Version("d1", R"({"email":"a@b.com"})"));
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].AsString(), "a@b.com");
}

TEST(ProjectKeysTest, MissingLeadingKeySkipsDoc) {
  IndexDefinition def;
  def.key_paths = {"email"};
  EXPECT_TRUE(ProjectKeys(def, Version("d1", R"({"name":"x"})")).empty());
}

TEST(ProjectKeysTest, DeletionDropsEntries) {
  IndexDefinition def;
  def.key_paths = {"email"};
  kv::Document tombstone = Version("d1", "");
  tombstone.meta.deleted = true;
  EXPECT_TRUE(ProjectKeys(def, tombstone).empty());
  def.key_paths.clear();
  def.is_primary = true;
  EXPECT_TRUE(ProjectKeys(def, tombstone).empty());
}

TEST(ProjectKeysTest, CompositeKey) {
  IndexDefinition def;
  def.key_paths = {"last", "first"};
  auto keys = ProjectKeys(def, Version("d1", R"({"last":"B","first":"D"})"));
  ASSERT_EQ(keys.size(), 1u);
  ASSERT_TRUE(keys[0].is_array());
  EXPECT_EQ(keys[0].At(0).AsString(), "B");
  EXPECT_EQ(keys[0].At(1).AsString(), "D");
}

TEST(ProjectKeysTest, PartialIndexFilter) {
  IndexDefinition def;
  def.key_paths = {"age"};
  def.where_fn = [](const Value& doc) {
    return doc.Field("age").is_number() && doc.Field("age").AsNumber() > 21;
  };
  EXPECT_TRUE(ProjectKeys(def, Version("d", R"({"age":18})")).empty());
  EXPECT_EQ(ProjectKeys(def, Version("d", R"({"age":30})")).size(), 1u);
}

TEST(ProjectKeysTest, ArrayIndexOneEntryPerElement) {
  IndexDefinition def;
  def.key_paths = {"categories"};
  def.array_index = true;
  auto keys =
      ProjectKeys(def, Version("d", R"({"categories":["a","b","c"]})"));
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[1].AsString(), "b");
}

TEST(ProjectKeysTest, PrimaryIndexUsesDocId) {
  IndexDefinition def;
  def.is_primary = true;
  auto keys = ProjectKeys(def, Version("the-id", "{}"));
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].AsString(), "the-id");
}

// The primary index holds every document; a secondary index only JSON ones.
TEST(ProjectKeysTest, NonJsonBodyKeyedOnlyByPrimary) {
  kv::Document blob = Version("blob", "\x01not json");
  IndexDefinition primary;
  primary.is_primary = true;
  auto keys = ProjectKeys(primary, blob);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].AsString(), "blob");
  IndexDefinition secondary;
  secondary.key_paths = {"email"};
  EXPECT_TRUE(ProjectKeys(secondary, blob).empty());
}

// --- IndexPartition ---

KeyVersion KV(const std::string& doc_id, std::vector<Value> keys,
              uint64_t seqno = 1, uint16_t vb = 0) {
  KeyVersion kv;
  kv.index_name = "i";
  kv.doc_id = doc_id;
  kv.keys = std::move(keys);
  kv.seqno = seqno;
  kv.vbucket = vb;
  return kv;
}

TEST(IndexPartitionTest, ApplyAndScan) {
  IndexDefinition def;
  def.key_paths = {"x"};
  IndexPartition p(def, 0, nullptr);
  p.Apply(KV("d1", {Value::Int(5)}, 1));
  p.Apply(KV("d2", {Value::Int(10)}, 2));
  p.Apply(KV("d3", {Value::Int(15)}, 3));
  ScanRange range;
  range.lo = Value::Int(6);
  auto out = p.Scan(range, SIZE_MAX);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].doc_id, "d2");
  EXPECT_EQ(out[1].doc_id, "d3");
}

// A primary entry is the id alone: its key reads MISSING, a delete finds
// it by id, and range bounds compare with the id as a JSON string.
TEST(IndexPartitionTest, PrimaryEntriesHoldTheIdOnce) {
  IndexDefinition def;
  def.is_primary = true;
  IndexPartition p(def, 0, nullptr);
  for (const char* id : {"b", "a", "c", "d"}) p.Apply(KV(id, {Value::Str(id)}));
  p.Apply(KV("c", {}, 2));                 // deleted
  p.Apply(KV("a", {Value::Str("a")}, 3));  // a new version: still one entry
  EXPECT_EQ(p.num_entries(), 3u);
  auto ids = [&](const ScanRange& range, size_t limit = SIZE_MAX) {
    std::vector<std::string> out;
    for (const IndexEntry& e : p.Scan(range, limit)) {
      EXPECT_TRUE(e.key.is_missing());
      out.push_back(e.doc_id);
    }
    return out;
  };
  using Ids = std::vector<std::string>;
  EXPECT_EQ(ids(ScanRange::All()), (Ids{"a", "b", "d"}));
  EXPECT_EQ(ids(ScanRange::All(), 2), (Ids{"a", "b"}));
  ScanRange open;
  open.lo = Value::Str("a");
  open.lo_inclusive = false;
  open.hi = Value::Str("d");
  open.hi_inclusive = false;
  EXPECT_EQ(ids(open), (Ids{"b"}));
  EXPECT_EQ(ids(ScanRange::Point(Value::Str("d"))), (Ids{"d"}));
  // Every id is a string: numbers sort before it, arrays after it.
  ScanRange above_number;
  above_number.lo = Value::Int(5);
  above_number.lo_inclusive = false;
  EXPECT_EQ(ids(above_number), (Ids{"a", "b", "d"}));
  ScanRange below_array;
  below_array.hi = Value::MakeArray();
  below_array.hi_inclusive = false;
  EXPECT_EQ(ids(below_array), (Ids{"a", "b", "d"}));
  ScanRange from_array;
  from_array.lo = Value::MakeArray();
  EXPECT_TRUE(ids(from_array).empty());
  ScanRange up_to_null;
  up_to_null.hi = Value::Null();
  EXPECT_TRUE(ids(up_to_null).empty());
}

TEST(IndexPartitionTest, UpdateReplacesOldKey) {
  IndexDefinition def;
  def.key_paths = {"x"};
  IndexPartition p(def, 0, nullptr);
  p.Apply(KV("d1", {Value::Int(5)}, 1));
  p.Apply(KV("d1", {Value::Int(50)}, 2));
  EXPECT_EQ(p.num_entries(), 1u);
  auto out = p.Scan(ScanRange::All(), SIZE_MAX);
  EXPECT_EQ(out[0].key.AsInt(), 50);
}

TEST(IndexPartitionTest, EmptyKeysActAsDelete) {
  IndexDefinition def;
  def.key_paths = {"x"};
  IndexPartition p(def, 0, nullptr);
  p.Apply(KV("d1", {Value::Int(5)}, 1));
  p.Apply(KV("d1", {}, 2));
  EXPECT_EQ(p.num_entries(), 0u);
}

TEST(IndexPartitionTest, ExclusiveBounds) {
  IndexDefinition def;
  def.key_paths = {"x"};
  IndexPartition p(def, 0, nullptr);
  for (int i = 1; i <= 5; ++i) {
    p.Apply(KV("d" + std::to_string(i), {Value::Int(i)},
               static_cast<uint64_t>(i)));
  }
  ScanRange range;
  range.lo = Value::Int(2);
  range.lo_inclusive = false;
  range.hi = Value::Int(4);
  range.hi_inclusive = false;
  auto out = p.Scan(range, SIZE_MAX);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key.AsInt(), 3);
}

// A composite key is the array [age, name]. The range bounds its leading
// element: arrays sort after numbers, so comparing whole keys with a scalar
// bound would match nothing (or everything).
TEST(IndexPartitionTest, CompositeKeyRangeBoundsLeadingElement) {
  IndexDefinition def;
  def.key_paths = {"age", "name"};
  IndexPartition p(def, 0, nullptr);
  for (int i = 0; i < 20; ++i) {
    // Two entries per age, so the bounds must cover every name of an age.
    for (const char* name : {"a", "b"}) {
      p.Apply(KV("d" + std::to_string(i) + name,
                 {Value::MakeArray({Value::Int(i), Value::Str(name)})}, 1));
    }
  }
  auto leading = [&](const ScanRange& range, size_t limit = SIZE_MAX) {
    std::vector<int64_t> out;
    for (const IndexEntry& e : p.Scan(range, limit)) {
      out.push_back(e.key.At(0).AsInt());
    }
    return out;
  };
  ScanRange r;
  r.lo = Value::Int(5);
  r.hi = Value::Int(8);
  r.hi_inclusive = false;
  EXPECT_EQ(leading(r), (std::vector<int64_t>{5, 5, 6, 6, 7, 7}));
  EXPECT_EQ(leading(ScanRange::Point(Value::Int(4))),
            (std::vector<int64_t>{4, 4}));
  ScanRange from17;
  from17.lo = Value::Int(17);
  EXPECT_EQ(leading(from17), (std::vector<int64_t>{17, 17, 18, 18, 19, 19}));
  EXPECT_EQ(leading(from17, 3), (std::vector<int64_t>{17, 17, 18}));
  from17.lo_inclusive = false;
  EXPECT_EQ(leading(from17), (std::vector<int64_t>{18, 18, 19, 19}));
  ScanRange upto1;
  upto1.hi = Value::Int(1);
  EXPECT_EQ(leading(upto1), (std::vector<int64_t>{0, 0, 1, 1}));
}

TEST(IndexPartitionTest, PartitionedOwnership) {
  IndexDefinition def;
  def.key_paths = {"x"};
  def.num_partitions = 4;
  std::vector<std::unique_ptr<IndexPartition>> parts;
  for (uint32_t i = 0; i < 4; ++i) {
    parts.push_back(std::make_unique<IndexPartition>(def, i, nullptr));
  }
  // Broadcast 100 key versions; each lands in exactly one partition.
  for (int i = 0; i < 100; ++i) {
    auto kv = KV("d" + std::to_string(i), {Value::Int(i)},
                 static_cast<uint64_t>(i + 1));
    for (auto& p : parts) p->Apply(kv);
  }
  size_t total = 0;
  for (auto& p : parts) {
    EXPECT_LT(p->num_entries(), 100u);  // no partition holds everything
    total += p->num_entries();
  }
  EXPECT_EQ(total, 100u);
}

TEST(IndexPartitionTest, PartitionKeyChangeMovesEntry) {
  // The §4.3.4 scenario: update changes the key so the entry must move
  // from one partition (delete) to another (insert).
  IndexDefinition def;
  def.key_paths = {"x"};
  def.num_partitions = 2;
  IndexPartition p0(def, 0, nullptr), p1(def, 1, nullptr);
  auto apply_both = [&](const KeyVersion& kv) {
    p0.Apply(kv);
    p1.Apply(kv);
  };
  // Find two values that hash to different partitions.
  Value a, b;
  bool found = false;
  for (int i = 0; i < 100 && !found; ++i) {
    for (int j = i + 1; j < 100; ++j) {
      Value vi = Value::Int(i), vj = Value::Int(j);
      if (p0.OwnsKey(vi) && p1.OwnsKey(vj)) {
        a = vi;
        b = vj;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found);
  apply_both(KV("doc", {a}, 1));
  EXPECT_EQ(p0.num_entries() + p1.num_entries(), 1u);
  EXPECT_EQ(p0.num_entries(), 1u);
  apply_both(KV("doc", {b}, 2));
  EXPECT_EQ(p0.num_entries(), 0u);  // deleted here
  EXPECT_EQ(p1.num_entries(), 1u);  // inserted there
}

// --- IndexService end-to-end ---

class IndexServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; ++i) cluster_.AddNode();
    cluster::BucketConfig cfg;
    cfg.name = "default";
    cfg.num_replicas = 1;
    ASSERT_TRUE(cluster_.CreateBucket(cfg).ok());
    service_ = std::make_shared<IndexService>(&cluster_);
    service_->Attach();
    client_ = std::make_unique<client::SmartClient>(&cluster_, "default");
  }

  IndexDefinition AgeIndex() {
    IndexDefinition def;
    def.name = "by_age";
    def.bucket = "default";
    def.key_paths = {"age"};
    return def;
  }

  cluster::Cluster cluster_;
  std::shared_ptr<IndexService> service_;
  std::unique_ptr<client::SmartClient> client_;
};

TEST_F(IndexServiceTest, BuildsFromExistingData) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("u" + std::to_string(i),
                             R"({"age":)" + std::to_string(20 + i % 30) + "}")
                    .ok());
  }
  ASSERT_TRUE(service_->CreateIndex(AgeIndex()).ok());
  auto entries = service_->Scan("default", "by_age", ScanRange::All(),
                                SIZE_MAX, ScanConsistency::kRequestPlus);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  EXPECT_EQ(entries->size(), 50u);
}

TEST_F(IndexServiceTest, RequestPlusSeesOwnWrite) {
  ASSERT_TRUE(service_->CreateIndex(AgeIndex()).ok());
  ASSERT_TRUE(client_->Upsert("u-new", R"({"age":99})").ok());
  // Read-your-own-write (paper §3.2.3: request_plus).
  auto entries =
      service_->Scan("default", "by_age", ScanRange::Point(Value::Int(99)),
                     SIZE_MAX, ScanConsistency::kRequestPlus);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].doc_id, "u-new");
}

TEST_F(IndexServiceTest, RangeScanOrdered) {
  ASSERT_TRUE(service_->CreateIndex(AgeIndex()).ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("u" + std::to_string(i),
                             R"({"age":)" + std::to_string(i) + "}")
                    .ok());
  }
  ScanRange range;
  range.lo = Value::Int(10);
  range.hi = Value::Int(19);
  auto entries = service_->Scan("default", "by_age", range, SIZE_MAX,
                                ScanConsistency::kRequestPlus);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 10u);
  for (size_t i = 1; i < entries->size(); ++i) {
    EXPECT_LE(Value::Compare((*entries)[i - 1].key, (*entries)[i].key), 0);
  }
}

TEST_F(IndexServiceTest, LimitRespected) {
  ASSERT_TRUE(service_->CreateIndex(AgeIndex()).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("u" + std::to_string(i),
                             R"({"age":)" + std::to_string(i) + "}")
                    .ok());
  }
  auto entries = service_->Scan("default", "by_age", ScanRange::All(), 5,
                                ScanConsistency::kRequestPlus);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 5u);
}

TEST_F(IndexServiceTest, PartitionedIndexScatterGather) {
  IndexDefinition def = AgeIndex();
  def.name = "by_age_p";
  def.num_partitions = 4;
  ASSERT_TRUE(service_->CreateIndex(def).ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("u" + std::to_string(i),
                             R"({"age":)" + std::to_string(i) + "}")
                    .ok());
  }
  auto entries = service_->Scan("default", "by_age_p", ScanRange::All(),
                                SIZE_MAX, ScanConsistency::kRequestPlus);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 40u);
  for (size_t i = 1; i < entries->size(); ++i) {
    EXPECT_LE(Value::Compare((*entries)[i - 1].key, (*entries)[i].key), 0);
  }
  EXPECT_EQ(service_->Stats("default", "by_age_p").num_partitions, 4u);
}

// The gather merges the partitions' runs: under a LIMIT the result is the
// first entries of the whole index in (key, doc_id) order, the same as an
// unpartitioned index returns.
TEST_F(IndexServiceTest, PartitionedScanMergesInEntryOrderUnderLimit) {
  IndexDefinition parted = AgeIndex();
  parted.name = "by_age_3";
  parted.num_partitions = 3;
  ASSERT_TRUE(service_->CreateIndex(parted).ok());
  ASSERT_TRUE(service_->CreateIndex(AgeIndex()).ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("u" + std::to_string(i),
                             R"({"age":)" + std::to_string(i % 7) + "}")
                    .ok());
  }
  ScanRange range;
  range.lo = Value::Int(2);
  for (size_t limit : {size_t{1}, size_t{9}, size_t{17}, SIZE_MAX}) {
    auto got = service_->Scan("default", "by_age_3", range, limit,
                              ScanConsistency::kRequestPlus);
    auto want = service_->Scan("default", "by_age", range, limit,
                               ScanConsistency::kRequestPlus);
    ASSERT_TRUE(got.ok() && want.ok());
    ASSERT_EQ(got->size(), want->size()) << limit;
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].doc_id, (*want)[i].doc_id) << limit << " @" << i;
      if (i > 0) {
        EXPECT_TRUE(EntryLess()((*got)[i - 1], (*got)[i]));
      }
    }
  }
}

TEST_F(IndexServiceTest, MemoryOptimizedWritesNoDisk) {
  IndexDefinition std_def = AgeIndex();
  IndexDefinition mem_def = AgeIndex();
  mem_def.name = "by_age_mem";
  mem_def.mode = IndexStorageMode::kMemoryOptimized;
  ASSERT_TRUE(service_->CreateIndex(std_def).ok());
  ASSERT_TRUE(service_->CreateIndex(mem_def).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("u" + std::to_string(i),
                             R"({"age":)" + std::to_string(i) + "}")
                    .ok());
  }
  ASSERT_TRUE(service_->WaitUntilCaughtUp("default", "by_age").ok());
  ASSERT_TRUE(service_->WaitUntilCaughtUp("default", "by_age_mem").ok());
  EXPECT_GT(service_->Stats("default", "by_age").disk_bytes_written, 0u);
  EXPECT_EQ(service_->Stats("default", "by_age_mem").disk_bytes_written, 0u);
}

TEST_F(IndexServiceTest, DropIndexStopsMaintenance) {
  ASSERT_TRUE(service_->CreateIndex(AgeIndex()).ok());
  ASSERT_TRUE(service_->DropIndex("default", "by_age").ok());
  EXPECT_FALSE(service_
                   ->Scan("default", "by_age", ScanRange::All(), 10,
                          ScanConsistency::kNotBounded)
                   .ok());
  EXPECT_TRUE(service_->ListIndexes("default").empty());
}

TEST_F(IndexServiceTest, IndexSurvivesRebalance) {
  ASSERT_TRUE(service_->CreateIndex(AgeIndex()).ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("u" + std::to_string(i),
                             R"({"age":)" + std::to_string(i) + "}")
                    .ok());
  }
  cluster_.AddNode();
  ASSERT_TRUE(cluster_.Rebalance().ok());
  for (int i = 60; i < 80; ++i) {
    ASSERT_TRUE(client_
                    ->Upsert("u" + std::to_string(i),
                             R"({"age":)" + std::to_string(i) + "}")
                    .ok());
  }
  auto entries = service_->Scan("default", "by_age", ScanRange::All(),
                                SIZE_MAX, ScanConsistency::kRequestPlus);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  EXPECT_EQ(entries->size(), 80u);
}

TEST_F(IndexServiceTest, MdsRequiresIndexNode) {
  cluster::Cluster c;
  c.AddNode(cluster::kDataService);  // data only, no index service
  cluster::BucketConfig cfg;
  cfg.name = "b";
  cfg.num_replicas = 0;
  ASSERT_TRUE(c.CreateBucket(cfg).ok());
  auto svc = std::make_shared<IndexService>(&c);
  svc->Attach();
  IndexDefinition def;
  def.name = "i";
  def.bucket = "b";
  def.key_paths = {"x"};
  EXPECT_FALSE(svc->CreateIndex(def).ok());
}

}  // namespace
}  // namespace couchkv::gsi
