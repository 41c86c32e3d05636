// Unit tests for the Database Change Protocol: change logs, streams,
// backfill from storage, multiple consumers, the ready queue, dispatcher
// retries and quiesce.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "dcp/dcp.h"
#include "stats/registry.h"
#include "storage/couch_file.h"

namespace couchkv::dcp {
namespace {

// Generous bound for waits on the dispatcher thread: long enough for any
// ctest -j load, short enough that a lost wakeup fails instead of hanging.
constexpr auto kDeadline = std::chrono::seconds(30);

// A counter that tests wait on from another thread.
class WaitableCount {
 public:
  void Add() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++n_;
    }
    cv_.notify_all();
  }
  int value() {
    std::lock_guard<std::mutex> lock(mu_);
    return n_;
  }
  // True once the count reaches n; false if kDeadline passes first.
  bool WaitFor(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, kDeadline, [&] { return n_ >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int n_ = 0;
};

kv::Document Doc(const std::string& key, const std::string& value,
                 uint64_t seqno) {
  kv::Document doc;
  doc.key = key;
  doc.value = value;
  doc.meta.seqno = seqno;
  return doc;
}

TEST(ChangeLogTest, AppendAndRead) {
  ChangeLog log;
  log.Append(Doc("a", "1", 1));
  log.Append(Doc("b", "2", 2));
  log.Append(Doc("c", "3", 3));
  std::vector<kv::Document> out;
  log.ReadSince(1, 100, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, "b");
  EXPECT_EQ(out[1].key, "c");
  EXPECT_EQ(log.high_seqno(), 3u);
}

TEST(ChangeLogTest, ReadRespectsMax) {
  ChangeLog log;
  for (uint64_t i = 1; i <= 10; ++i) log.Append(Doc("k", "v", i));
  std::vector<kv::Document> out;
  log.ReadSince(0, 4, &out);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].meta.seqno, 1u);
}

TEST(ChangeLogTest, WindowTrimsOldest) {
  ChangeLog log(/*max_items=*/5);
  log.MarkPersisted(10);  // the cap drops persisted items only
  for (uint64_t i = 1; i <= 10; ++i) log.Append(Doc("k", "v", i));
  EXPECT_EQ(log.size(), 5u);
  EXPECT_EQ(log.start_seqno(), 6u);
  std::vector<kv::Document> out;
  uint64_t start = log.ReadSince(0, 100, &out);
  EXPECT_EQ(start, 6u);
  EXPECT_EQ(out.size(), 5u);
}

TEST(ChangeLogTest, TrimDropsOnlyPersistedItems) {
  ChangeLog log;
  for (uint64_t i = 1; i <= 10; ++i) log.Append(Doc("k", "v", i));
  log.Trim(UINT64_MAX);  // nothing is persisted yet
  EXPECT_EQ(log.size(), 10u);
  log.MarkPersisted(6);
  log.Trim(4);  // the slowest stream has taken 4
  EXPECT_EQ(log.start_seqno(), 5u);
  log.Trim(UINT64_MAX);  // no stream: persistence alone bounds the trim
  EXPECT_EQ(log.start_seqno(), 7u);
  log.MarkPersisted(10);
  log.Trim(UINT64_MAX);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.start_seqno(), 11u);  // an empty window starts past the end
  EXPECT_EQ(log.high_seqno(), 10u);
}

TEST(ChangeLogTest, CapNeverDropsUnpersistedItems) {
  ChangeLog log(/*max_items=*/5);
  log.MarkPersisted(3);
  for (uint64_t i = 1; i <= 10; ++i) log.Append(Doc("k", "v", i));
  EXPECT_EQ(log.size(), 7u);
  EXPECT_EQ(log.start_seqno(), 4u);
}

// A backfill that reads vBucket 0's history from `cf`.
BackfillFn FromStorage(const storage::CouchFile* cf) {
  return [cf](uint16_t vb, uint64_t since, uint64_t upto,
              const MutationFn& fn) {
    return cf->ChangesSince(
        since,
        [&](kv::Document&& d) {
          kv::Mutation m;
          m.vbucket = vb;
          m.doc = std::move(d);
          return fn(m);
        },
        upto);
  };
}

TEST(ProducerTest, PersistedItemsLeaveOnceEveryStreamHasThem) {
  Producer p(1, nullptr);
  bool b_up = false;
  ASSERT_TRUE(p.AddStream("a", 0, 0, [](const kv::Mutation&) {
                 return Status::OK();
               }).ok());
  ASSERT_TRUE(p.AddStream("b", 0, 0, [&](const kv::Mutation& m) {
                 return b_up || m.doc.meta.seqno < 3 ? Status::OK()
                                                     : Status::TempFail("down");
               }).ok());
  for (uint64_t i = 1; i <= 10; ++i) p.OnMutation(0, Doc("k", "v", i));
  p.Drain();
  EXPECT_EQ(p.LogItems(), 10u);  // nothing is persisted yet
  p.OnPersisted(0, 8);
  EXPECT_EQ(p.LogItems(), 8u);  // "b" has taken 1..2 only
  b_up = true;
  p.Drain();
  EXPECT_EQ(p.LogItems(), 2u);  // 9..10 are not persisted
  p.OnPersisted(0, 10);
  EXPECT_EQ(p.LogItems(), 0u);
  EXPECT_EQ(p.high_seqno(0), 10u);
}

// A stream that stalls while its vBucket takes more writes than the log's
// cap goes back to storage for what the cap dropped: each seqno arrives
// once, in order, with no gap.
TEST(ProducerTest, StalledStreamBackfillsWhatTheCapDropped) {
  auto env = storage::Env::NewMemEnv();
  auto cf = storage::CouchFile::Open(env.get(), "vb0").value();
  Producer p(1, FromStorage(cf.get()));
  bool up = true;
  std::vector<uint64_t> seen;
  ASSERT_TRUE(p.AddStream("replica", 0, 0, [&](const kv::Mutation& m) {
                 if (!up) return Status::TempFail("partitioned");
                 seen.push_back(m.doc.meta.seqno);
                 return Status::OK();
               }).ok());
  // Distinct keys, so no later version stands in for a dropped one.
  constexpr uint64_t kWrites = (1 << 16) + 5000;
  constexpr uint64_t kBatch = 1000;
  for (uint64_t first = 1; first <= kWrites; first += kBatch) {
    std::vector<kv::Document> batch;
    for (uint64_t i = first; i < first + kBatch && i <= kWrites; ++i) {
      batch.push_back(Doc("key" + std::to_string(i), "v", i));
      p.OnMutation(0, batch.back());
    }
    ASSERT_TRUE(cf->SaveDocs(batch).ok());
    ASSERT_TRUE(cf->Commit().ok());
    p.OnPersisted(0, batch.back().meta.seqno);
    p.Drain();
    up = false;  // stalls after the first batch
  }
  EXPECT_GT(p.LogItems(), 0u);
  EXPECT_LE(p.LogItems(), size_t{1} << 16);  // the cap held
  up = true;
  p.Drain();
  ASSERT_EQ(seen.size(), kWrites);
  for (uint64_t i = 0; i < kWrites; ++i) ASSERT_EQ(seen[i], i + 1);
  EXPECT_EQ(p.LogItems(), 0u);
}

TEST(ProducerTest, StreamReceivesMutationsInOrder) {
  Producer p(4, nullptr);
  std::vector<uint64_t> seen;
  ASSERT_TRUE(p.AddStream("test", 2, 0, [&](const kv::Mutation& m) {
                 EXPECT_EQ(m.vbucket, 2);
                 seen.push_back(m.doc.meta.seqno);
                 return Status::OK();
               }).ok());
  p.OnMutation(2, Doc("a", "1", 1));
  p.OnMutation(2, Doc("b", "2", 2));
  p.OnMutation(3, Doc("x", "9", 1));  // different vbucket: not delivered
  p.Drain();
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 2}));
}

TEST(ProducerTest, StreamFromMidpoint) {
  Producer p(1, nullptr);
  for (uint64_t i = 1; i <= 10; ++i) p.OnMutation(0, Doc("k", "v", i));
  std::vector<uint64_t> seen;
  ASSERT_TRUE(p.AddStream("mid", 0, 7, [&](const kv::Mutation& m) {
                 seen.push_back(m.doc.meta.seqno);
                 return Status::OK();
               }).ok());
  p.Drain();
  EXPECT_EQ(seen, (std::vector<uint64_t>{8, 9, 10}));
}

TEST(ProducerTest, MultipleConsumersIndependent) {
  Producer p(1, nullptr);
  int a = 0, b = 0;
  ASSERT_TRUE(p.AddStream("a", 0, 0, [&](const kv::Mutation&) {
                 ++a;
                 return Status::OK();
               }).ok());
  p.OnMutation(0, Doc("k", "1", 1));
  p.Drain();
  ASSERT_TRUE(p.AddStream("b", 0, 0, [&](const kv::Mutation&) {
                 ++b;
                 return Status::OK();
               }).ok());
  p.OnMutation(0, Doc("k", "2", 2));
  p.Drain();
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 2);  // b started from 0 and caught up
}

TEST(ProducerTest, RemoveStreamStopsDelivery) {
  Producer p(1, nullptr);
  int count = 0;
  uint64_t id =
      p.AddStream("x", 0, 0, [&](const kv::Mutation&) {
         ++count;
         return Status::OK();
       }).value();
  p.OnMutation(0, Doc("k", "1", 1));
  p.Drain();
  p.RemoveStream(id);
  p.OnMutation(0, Doc("k", "2", 2));
  p.Drain();
  EXPECT_EQ(count, 1);
}

TEST(ProducerTest, RemoveStreamsNamed) {
  Producer p(2, nullptr);
  int count = 0;
  auto counter = [&](const kv::Mutation&) {
    ++count;
    return Status::OK();
  };
  ASSERT_TRUE(p.AddStream("repl", 0, 0, counter).ok());
  ASSERT_TRUE(p.AddStream("repl", 1, 0, counter).ok());
  ASSERT_TRUE(p.AddStream("other", 0, 0, [](const kv::Mutation&) {
                 return Status::OK();
               }).ok());
  p.RemoveStreamsNamed("repl");
  p.OnMutation(0, Doc("k", "1", 1));
  p.Drain();
  EXPECT_EQ(count, 0);
}

TEST(ProducerTest, StreamSeqnoTracksAcks) {
  Producer p(1, nullptr);
  ASSERT_TRUE(p.AddStream("idx", 0, 0, [](const kv::Mutation&) {
                 return Status::OK();
               }).ok());
  EXPECT_EQ(p.StreamSeqno("idx", 0), 0u);
  p.OnMutation(0, Doc("k", "1", 1));
  p.OnMutation(0, Doc("k", "2", 2));
  p.Drain();
  EXPECT_EQ(p.StreamSeqno("idx", 0), 2u);
  EXPECT_EQ(p.StreamSeqno("missing", 0), UINT64_MAX);
}

TEST(ProducerTest, BackfillFromStorageCoversTrimmedWindow) {
  // Build a storage file holding the full history.
  auto env = storage::Env::NewMemEnv();
  auto cf = storage::CouchFile::Open(env.get(), "vb0").value();
  std::vector<kv::Document> docs;
  for (uint64_t i = 1; i <= 100; ++i) {
    docs.push_back(Doc("key" + std::to_string(i), "v", i));
  }
  ASSERT_TRUE(cf->SaveDocs(docs).ok());
  ASSERT_TRUE(cf->Commit().ok());

  Producer p(1, FromStorage(cf.get()));
  // Tiny in-memory window: only the last few mutations are in the log.
  // (Producer's internal logs have a large default; emulate the trimmed
  // state by feeding only the tail through OnMutation.)
  for (uint64_t i = 95; i <= 100; ++i) {
    p.OnMutation(0, Doc("key" + std::to_string(i), "v", i));
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(p.AddStream("warm", 0, 0, [&](const kv::Mutation& m) {
                 seen.push_back(m.doc.meta.seqno);
                 return Status::OK();
               }).ok());
  p.Drain();
  // Backfill supplies 1..94 from storage, the window supplies 95..100.
  ASSERT_EQ(seen.size(), 100u);
  for (uint64_t i = 0; i < 100; ++i) EXPECT_EQ(seen[i], i + 1);
}

TEST(ProducerTest, ReadyQueuePumpsOnlyTouchedVBuckets) {
  auto scope = stats::Registry::Global().GetScope("test.dcp.ready_queue");
  DcpCounters counters = DcpCounters::In(scope.get());
  constexpr uint16_t kVBuckets = 8;
  Producer p(kVBuckets, nullptr, &counters);
  std::vector<int> seen(kVBuckets, 0);
  for (uint16_t vb = 0; vb < kVBuckets; ++vb) {
    for (const char* name : {"a", "b"}) {
      ASSERT_TRUE(p.AddStream(name, vb, 0, [&seen, vb](const kv::Mutation&) {
                     ++seen[vb];
                     return Status::OK();
                   }).ok());
    }
  }
  p.Drain();  // AddStream queued every vBucket: each stream visited once
  const uint64_t after_open = counters.stream_pumps->Value();
  EXPECT_EQ(after_open, 2u * kVBuckets);

  for (uint64_t i = 1; i <= 5; ++i) p.OnMutation(3, Doc("k", "v", i));
  p.Drain();
  // Only vBucket 3's two streams were visited, in one pass.
  EXPECT_EQ(counters.stream_pumps->Value() - after_open, 2u);
  for (uint16_t vb = 0; vb < kVBuckets; ++vb) {
    EXPECT_EQ(seen[vb], vb == 3 ? 10 : 0) << "vb " << vb;
  }
  p.Drain();  // nothing ready: no stream is visited
  EXPECT_EQ(counters.stream_pumps->Value() - after_open, 2u);
  stats::Registry::Global().DropScope(scope->name());
}

TEST(ProducerTest, FullBatchRequeuesVBucket) {
  Producer p(1, nullptr);
  int count = 0;
  ASSERT_TRUE(p.AddStream("batched", 0, 0, [&](const kv::Mutation&) {
                 ++count;
                 return Status::OK();
               }).ok());
  for (uint64_t i = 1; i <= 10; ++i) p.OnMutation(0, Doc("k", "v", i));
  EXPECT_TRUE(p.PumpOnce(/*batch_per_stream=*/4));
  EXPECT_EQ(count, 4);
  EXPECT_TRUE(p.HasReady());  // the batch filled: more may be pending
  while (p.PumpOnce(4)) {
  }
  EXPECT_EQ(count, 10);
  EXPECT_FALSE(p.HasReady());
}

TEST(DispatcherTest, DeliversAsynchronously) {
  auto p = std::make_shared<Producer>(1, nullptr);
  WaitableCount count;
  ASSERT_TRUE(p->AddStream("async", 0, 0, [&](const kv::Mutation&) {
                 count.Add();
                 return Status::OK();
               }).ok());
  Dispatcher d;
  d.AddProducer(p);
  for (uint64_t i = 1; i <= 50; ++i) {
    p->OnMutation(0, Doc("k", "v", i));
    d.Notify();
  }
  EXPECT_TRUE(count.WaitFor(50));
  d.Stop();
  EXPECT_EQ(count.value(), 50);
}

// A failed delivery stalls the stream. Nothing else happens afterwards: no
// mutation, no Notify. The dispatcher's retry tick alone must deliver it,
// as when a partitioned link heals.
TEST(DispatcherTest, StalledStreamRetriesWithoutNewMutation) {
  auto p = std::make_shared<Producer>(2, nullptr);
  constexpr int kFailures = 3;
  constexpr int kItems = 10;
  std::atomic<int> attempts{0};
  WaitableCount delivered;
  ASSERT_TRUE(p->AddStream("flaky", 1, 0, [&](const kv::Mutation&) {
                 if (attempts.fetch_add(1) < kFailures) {
                   return Status::TempFail("link down");
                 }
                 delivered.Add();
                 return Status::OK();
               }).ok());
  for (uint64_t i = 1; i <= kItems; ++i) p->OnMutation(1, Doc("k", "v", i));
  Dispatcher d;
  d.AddProducer(p);  // wakes the pump thread once
  EXPECT_TRUE(delivered.WaitFor(kItems));
  d.Stop();
  EXPECT_EQ(delivered.value(), kItems);
  EXPECT_EQ(attempts.load(), kItems + kFailures);
}

// Quiesce is a barrier: while the pump thread is inside a delivery
// callback, a Quiesce from another thread must not return before that item
// is delivered, even though the pump thread already took the vBucket off
// the ready queue.
TEST(DispatcherTest, QuiesceWaitsForInFlightPass) {
  auto marker = std::make_shared<Producer>(1, nullptr);
  auto blocked = std::make_shared<Producer>(1, nullptr);
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false, released = false;
  std::atomic<bool> delivered{false};
  ASSERT_TRUE(blocked->AddStream("blocked", 0, 0, [&](const kv::Mutation&) {
                 std::unique_lock<std::mutex> lock(mu);
                 entered = true;
                 cv.notify_all();
                 EXPECT_TRUE(cv.wait_for(lock, kDeadline, [&] {
                   return released;
                 }));
                 delivered.store(true);
                 return Status::OK();
               }).ok());
  // Quiesce pumps `marker` before `blocked`; its callback, run by Quiesce,
  // releases the pump thread just before Quiesce reaches `blocked`.
  ASSERT_TRUE(marker->AddStream("marker", 0, 0, [&](const kv::Mutation&) {
                 {
                   std::lock_guard<std::mutex> lock(mu);
                   released = true;
                 }
                 cv.notify_all();
                 return Status::OK();
               }).ok());

  Dispatcher d;
  d.AddProducer(marker);
  d.AddProducer(blocked);
  blocked->OnMutation(0, Doc("k", "v", 1));
  d.Notify();
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, kDeadline, [&] { return entered; }));
  }
  marker->OnMutation(0, Doc("m", "v", 1));  // no Notify: only Quiesce sees it
  bool delivered_at_return = false;
  std::thread quiescer([&] {
    d.Quiesce();
    delivered_at_return = delivered.load();
  });
  quiescer.join();
  EXPECT_TRUE(delivered_at_return);
  d.Stop();
}

TEST(DispatcherTest, QuiesceDrainsSynchronously) {
  auto p = std::make_shared<Producer>(1, nullptr);
  int count = 0;
  ASSERT_TRUE(p->AddStream("q", 0, 0, [&](const kv::Mutation&) {
                 ++count;
                 return Status::OK();
               }).ok());
  Dispatcher d;
  d.AddProducer(p);
  d.Stop();  // kill the async thread; quiesce still works
  for (uint64_t i = 1; i <= 5; ++i) p->OnMutation(0, Doc("k", "v", i));
  d.Quiesce();
  EXPECT_EQ(count, 5);
}

}  // namespace
}  // namespace couchkv::dcp
