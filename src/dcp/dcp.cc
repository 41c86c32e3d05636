#include "dcp/dcp.h"

#include <thread>

#include "common/logging.h"
#include "common/thread_name.h"

namespace couchkv::dcp {

// ---------------------------------------------------------------------------
// ChangeLog
// ---------------------------------------------------------------------------

void ChangeLog::Append(kv::Document doc) {
  LockGuard lock(mu_);
  if (doc.meta.seqno > high_seqno_) high_seqno_ = doc.meta.seqno;
  items_.push_back(std::move(doc));
  // The cap never drops an item storage cannot serve yet: a stalled stream
  // behind it backfills, instead of silently skipping the dropped range.
  PopThrough(persisted_seqno_, max_items_);
}

void ChangeLog::PopThrough(uint64_t seqno, size_t keep_max) {
  while (items_.size() > keep_max && items_.front().meta.seqno <= seqno) {
    items_.pop_front();
  }
}

void ChangeLog::MarkPersisted(uint64_t seqno) {
  LockGuard lock(mu_);
  if (seqno > persisted_seqno_) persisted_seqno_ = seqno;
}

void ChangeLog::Trim(uint64_t upto) {
  LockGuard lock(mu_);
  PopThrough(std::min(upto, persisted_seqno_), 0);
}

void ChangeLog::Reset() {
  LockGuard lock(mu_);
  items_.clear();
  high_seqno_ = 0;
  persisted_seqno_ = 0;
}

uint64_t ChangeLog::ReadSince(uint64_t since, size_t max,
                              std::vector<kv::Document>* out) const {
  LockGuard lock(mu_);
  uint64_t start = StartSeqno();
  // Binary search would need random access; the deque provides it.
  size_t lo = 0, hi = items_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (items_[mid].meta.seqno <= since) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  for (size_t i = lo; i < items_.size() && out->size() < max; ++i) {
    out->push_back(items_[i]);
  }
  return start;
}

uint64_t ChangeLog::high_seqno() const {
  LockGuard lock(mu_);
  return high_seqno_;
}

uint64_t ChangeLog::start_seqno() const {
  LockGuard lock(mu_);
  return StartSeqno();
}

size_t ChangeLog::size() const {
  LockGuard lock(mu_);
  return items_.size();
}

// ---------------------------------------------------------------------------
// Producer
// ---------------------------------------------------------------------------

DcpCounters DcpCounters::In(stats::Scope* scope) {
  DcpCounters c;
  c.items_appended = scope->GetCounter("dcp.items_appended");
  c.items_delivered = scope->GetCounter("dcp.items_delivered");
  c.backfill_items = scope->GetCounter("dcp.backfill_items");
  c.stream_pumps = scope->GetCounter("dcp.stream_pumps");
  return c;
}

Producer::Producer(uint16_t num_vbuckets, BackfillFn backfill,
                   const DcpCounters* counters)
    : num_vbuckets_(num_vbuckets),
      backfill_(std::move(backfill)),
      counters_(counters != nullptr ? *counters : DcpCounters{}),
      by_vbucket_(num_vbuckets),
      queued_(std::make_unique<std::atomic<bool>[]>(num_vbuckets)) {
  logs_.reserve(num_vbuckets_);
  for (uint16_t i = 0; i < num_vbuckets_; ++i) {
    logs_.push_back(std::make_unique<ChangeLog>());
  }
}

void Producer::MarkReady(uint16_t vbucket) {
  if (queued_[vbucket].exchange(true, std::memory_order_acq_rel)) return;
  LockGuard lock(ready_mu_);
  ready_.push_back(vbucket);
}

void Producer::OnMutation(uint16_t vbucket, kv::Document doc) {
  logs_[vbucket]->Append(std::move(doc));
  if (counters_.items_appended != nullptr) counters_.items_appended->Add();
  MarkReady(vbucket);
}

void Producer::OnPersisted(uint16_t vbucket, uint64_t seqno) {
  // Publish the persisted seqno before reading the streams' acks, as a pump
  // pass stores its acks before reading the persisted seqno (both under the
  // log's mutex): whichever trims second sees both, so nothing that could
  // be dropped outlives the later of the two events.
  logs_[vbucket]->MarkPersisted(seqno);
  TrimLog(vbucket);
}

void Producer::TrimLog(uint16_t vbucket) {
  uint64_t slowest = UINT64_MAX;
  {
    LockGuard lock(mu_);
    for (const auto& s : by_vbucket_[vbucket]) {
      slowest = std::min(slowest,
                         s->next_seqno.load(std::memory_order_relaxed) - 1);
    }
  }
  logs_[vbucket]->Trim(slowest);
}

void Producer::ResetVBucket(uint16_t vbucket) { logs_[vbucket]->Reset(); }

StatusOr<uint64_t> Producer::AddStream(const std::string& name,
                                       uint16_t vbucket, uint64_t from_seqno,
                                       MutationFn fn) {
  if (vbucket >= num_vbuckets_) {
    return Status::InvalidArgument("vbucket out of range");
  }
  auto stream = std::make_shared<Stream>();
  stream->name = name;
  stream->vbucket = vbucket;
  stream->next_seqno.store(from_seqno + 1, std::memory_order_relaxed);
  stream->fn = std::move(fn);
  uint64_t id;
  {
    LockGuard lock(mu_);
    id = stream->id = next_stream_id_++;
    streams_[id] = stream;
    by_vbucket_[vbucket].push_back(std::move(stream));
  }
  MarkReady(vbucket);
  return id;
}

void Producer::RemoveStream(uint64_t stream_id) {
  std::shared_ptr<Stream> victim;
  {
    LockGuard lock(mu_);
    auto it = streams_.find(stream_id);
    if (it == streams_.end()) return;
    victim = it->second;
    streams_.erase(it);
    std::erase(by_vbucket_[victim->vbucket], victim);
  }
  // Barrier: wait out any in-flight delivery and mark the stream closed so
  // a pumper that snapshotted it before the erase skips it.
  LockGuard delivery_lock(victim->delivery_mu);
  victim->closed = true;
}

void Producer::RemoveStreamsNamed(const std::string& name) {
  std::vector<std::shared_ptr<Stream>> victims;
  {
    LockGuard lock(mu_);
    for (auto it = streams_.begin(); it != streams_.end();) {
      if (it->second->name == name) {
        std::erase(by_vbucket_[it->second->vbucket], it->second);
        victims.push_back(it->second);
        it = streams_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& victim : victims) {
    LockGuard delivery_lock(victim->delivery_mu);
    victim->closed = true;
  }
}

bool Producer::BackfillStream(Stream& s, uint64_t window_start,
                              bool* delivered) {
  // The in-memory window no longer covers this stream's position: serve
  // the gap from the storage engine (paper: DCP "backfill"). Everything
  // below the window is persisted, so storage holds the latest version of
  // every key in the gap.
  bool stalled = false;
  if (backfill_) {
    uint64_t delivered_up_to = s.next_seqno.load(std::memory_order_relaxed) - 1;
    Status st = backfill_(
        s.vbucket, delivered_up_to, window_start - 1,
        [&](const kv::Mutation& m) {
          Status delivery = s.fn(m);
          if (!delivery.ok()) {
            stalled = true;  // aborts the scan; retried on a later pump
            return delivery;
          }
          s.next_seqno.store(m.doc.meta.seqno + 1, std::memory_order_relaxed);
          *delivered = true;
          if (counters_.items_delivered != nullptr) {
            counters_.items_delivered->Add();
            counters_.backfill_items->Add();
          }
          return Status::OK();
        });
    if (!st.ok() && !stalled) {
      LOG_WARN << "DCP backfill failed for vb " << s.vbucket << ": "
               << st.ToString();
    }
  }
  // Storage had the whole gap: resume from the window. A stalled delivery
  // instead resumes the backfill from its first undelivered seqno.
  if (!stalled &&
      s.next_seqno.load(std::memory_order_relaxed) < window_start) {
    s.next_seqno.store(window_start, std::memory_order_relaxed);
  }
  return !stalled;
}

bool Producer::PumpStream(Stream& s, size_t batch_per_stream, bool* more) {
  bool delivered = false;
  ChangeLog& log = *logs_[s.vbucket];
  std::vector<kv::Document> batch;
  // Checked on every pump, not once per stream: a trim (or the size cap)
  // can pass a stream that stalled, and its next items are then in storage.
  for (;;) {
    uint64_t next = s.next_seqno.load(std::memory_order_relaxed);
    uint64_t window_start = log.ReadSince(next - 1, batch_per_stream, &batch);
    if (next >= window_start) break;
    batch.clear();
    if (!BackfillStream(s, window_start, &delivered)) {
      *more = true;
      return delivered;
    }
  }
  if (batch.size() == batch_per_stream) *more = true;
  for (kv::Document& doc : batch) {
    // Skip already-delivered seqnos.
    if (doc.meta.seqno < s.next_seqno.load(std::memory_order_relaxed)) {
      continue;
    }
    kv::Mutation m;
    m.vbucket = s.vbucket;
    m.doc = std::move(doc);
    // Advance only after a successful delivery: a failed (dropped /
    // partitioned) delivery stalls the stream so the mutation is retried
    // rather than lost.
    if (!s.fn(m).ok()) {
      *more = true;
      break;
    }
    s.next_seqno.store(m.doc.meta.seqno + 1, std::memory_order_relaxed);
    delivered = true;
    if (counters_.items_delivered != nullptr) counters_.items_delivered->Add();
  }
  return delivered;
}

bool Producer::PumpOnce(size_t batch_per_stream) {
  LockGuard pump_lock(pump_mu_);
  std::vector<uint16_t> vbuckets;
  {
    LockGuard lock(ready_mu_);
    vbuckets.swap(ready_);
  }
  if (vbuckets.empty()) return false;
  // Clear each flag before reading its logs: a mutation appended after the
  // clear queues its vBucket again, so none is missed.
  for (uint16_t vb : vbuckets) queued_[vb].store(false);
  // Snapshot the streams, then deliver without holding the map lock so
  // callbacks may add/remove streams.
  std::vector<std::shared_ptr<Stream>> snapshot;
  {
    LockGuard lock(mu_);
    for (uint16_t vb : vbuckets) {
      snapshot.insert(snapshot.end(), by_vbucket_[vb].begin(),
                      by_vbucket_[vb].end());
    }
  }

  bool delivered = false;
  uint64_t visited = 0;
  for (auto& s : snapshot) {
    bool more = false;
    {
      LockGuard delivery_lock(s->delivery_mu);
      if (s->closed) continue;
      ++visited;
      if (PumpStream(*s, batch_per_stream, &more)) delivered = true;
    }
    if (more) MarkReady(s->vbucket);
  }
  // The streams have acked what they took; drop what they all passed and
  // storage holds.
  for (uint16_t vb : vbuckets) TrimLog(vb);
  if (counters_.stream_pumps != nullptr) counters_.stream_pumps->Add(visited);
  return delivered;
}

void Producer::Drain() {
  while (PumpOnce()) {
  }
}

bool Producer::HasReady() {
  LockGuard pump_lock(pump_mu_);
  LockGuard lock(ready_mu_);
  return !ready_.empty();
}

uint64_t Producer::StreamSeqno(const std::string& name,
                               uint16_t vbucket) const {
  LockGuard lock(mu_);
  uint64_t result = UINT64_MAX;
  bool found = false;
  for (const auto& [id, s] : streams_) {
    if (s->name == name && s->vbucket == vbucket) {
      found = true;
      uint64_t acked = s->next_seqno.load(std::memory_order_relaxed) - 1;
      if (acked < result) result = acked;
    }
  }
  return found ? result : UINT64_MAX;
}

uint64_t Producer::high_seqno(uint16_t vbucket) const {
  return logs_[vbucket]->high_seqno();
}

uint64_t Producer::LogItems() const {
  uint64_t items = 0;
  for (const auto& log : logs_) items += log->size();
  return items;
}

uint64_t Producer::TotalBacklog() const {
  LockGuard lock(mu_);
  uint64_t backlog = 0;
  for (const auto& [id, s] : streams_) {
    uint64_t high = logs_[s->vbucket]->high_seqno();
    uint64_t acked = s->next_seqno.load(std::memory_order_relaxed) - 1;
    if (high > acked) backlog += high - acked;
  }
  return backlog;
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

Dispatcher::Dispatcher()
    : thread_([this] {
        common::SetThreadName("dcp.producer");
        Loop();
      }) {}

Dispatcher::~Dispatcher() { Stop(); }

void Dispatcher::AddProducer(std::shared_ptr<Producer> producer) {
  {
    LockGuard lock(mu_);
    producers_.push_back(std::move(producer));
    work_.store(true, std::memory_order_release);
  }
  cv_.NotifyAll();
}

void Dispatcher::RemoveProducer(const std::shared_ptr<Producer>& producer) {
  LockGuard lock(mu_);
  std::erase(producers_, producer);
}

void Dispatcher::Notify() {
  // Fast path: a wakeup is already pending, nothing to do. This keeps the
  // per-write cost of notifying DCP to one atomic exchange.
  if (work_.exchange(true, std::memory_order_acq_rel)) return;
  // Taking the mutex pairs with the waiter's predicate check: the Loop
  // either sees work_==true before sleeping or is woken by this notify.
  { LockGuard lock(mu_); }
  cv_.NotifyAll();
}

void Dispatcher::Quiesce() {
  std::vector<std::shared_ptr<Producer>> snapshot;
  {
    LockGuard lock(mu_);
    snapshot = producers_;
  }
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& p : snapshot) {
      if (p->PumpOnce()) progress = true;
    }
  }
}

void Dispatcher::Stop() {
  {
    LockGuard lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
}

void Dispatcher::Loop() {
  bool stalled = false;
  for (;;) {
    std::vector<std::shared_ptr<Producer>> snapshot;
    {
      UniqueLock lock(mu_);
      // Every OnMutation/AddStream is followed by a Notify, so with nothing
      // stalled the loop sleeps until one arrives. A stalled delivery is
      // retried on a 5 ms tick: a healed link sends no Notify.
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
      while (!work_.load(std::memory_order_acquire) && !stop_) {
        if (!stalled) {
          cv_.Wait(lock);
        } else if (!cv_.WaitUntil(lock, deadline)) {
          break;  // retry tick
        }
      }
      if (stop_) return;
      work_.store(false, std::memory_order_release);
      snapshot = producers_;
    }
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto& p : snapshot) {
        if (p->PumpOnce()) progress = true;
      }
      {
        LockGuard lock(mu_);
        if (stop_) return;
      }
    }
    // The last pass delivered nothing, so whatever is still ready is
    // stalled (or arrived since, in which case work_ is set too).
    stalled = false;
    for (auto& p : snapshot) {
      if (p->HasReady()) stalled = true;
    }
  }
}

}  // namespace couchkv::dcp
