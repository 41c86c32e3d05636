#include "client/smart_client.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "stats/trace.h"

namespace couchkv::client {

namespace {
// Process-wide id allocator for clients that don't pass an explicit id.
std::atomic<uint32_t> next_client_id{1};
}  // namespace

uint64_t NextBackoffUs(const RetryPolicy& policy, uint64_t prev_us, Rng& rng) {
  if (!policy.jitter) {
    return std::min(prev_us * 2, policy.max_backoff_us);
  }
  // Decorrelated jitter: sleep = min(cap, uniform[base, prev * 3]). Spreads
  // retry storms while still growing toward the cap on persistent failure.
  uint64_t lo = policy.initial_backoff_us;
  uint64_t hi = std::max(lo, prev_us * 3);
  return std::min(rng.UniformRange(lo, hi), policy.max_backoff_us);
}

SmartClient::SmartClient(cluster::Cluster* cluster, std::string bucket,
                         RetryPolicy retry, uint32_t client_id)
    : cluster_(cluster),
      bucket_(std::move(bucket)),
      retry_(retry),
      endpoint_(net::Endpoint::Client(
          client_id != 0 ? client_id : next_client_id.fetch_add(1))),
      backoff_rng_(0x9e3779b97f4a7c15ULL ^
                   (static_cast<uint64_t>(endpoint_.id) + 1) *
                       0x2545f4914f6cdd1dULL) {
  stats_scope_ = stats::Registry::Global().GetScope("client");
  get_ns_ = stats_scope_->GetHistogram("get_ns");
  mutate_ns_ = stats_scope_->GetHistogram("mutate_ns");
  retries_ = stats_scope_->GetCounter("retries");
  op_errors_ = stats_scope_->GetCounter("op_errors");
  map_refreshes_ = stats_scope_->GetCounter("map_refreshes");
  no_active_ = stats_scope_->GetCounter("no_active_fail_fast");
  RefreshMap();
}

void SmartClient::RefreshMap() {
  if (map_refreshes_ != nullptr) map_refreshes_->Add();
  map_ = cluster_->map(bucket_);
}

void SmartClient::Backoff(uint64_t* backoff_us) {
  if (*backoff_us > 0) {
    // justified: client retry backoff must really wait — spinning on the
    // clock would hammer a recovering node, and an immediate CAS retry
    // re-enters the race it just lost.
    std::this_thread::sleep_for(std::chrono::microseconds(*backoff_us));
  }
  *backoff_us = NextBackoffUs(retry_, *backoff_us, backoff_rng_);
}

template <typename Fn>
auto SmartClient::WithRouting(std::string_view key, Fn&& op)
    -> decltype(op(nullptr, uint16_t{0})) {
  uint16_t vb = cluster::KeyToVBucket(key);
  Status last = Status::TempFail("no attempts made");
  uint64_t backoff_us = retry_.initial_backoff_us;
  for (int attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    if (attempt > 0) {
      retries_->Add();
      Backoff(&backoff_us);
    }
    if (!map_) RefreshMap();
    if (!map_) return Status::NotFound("bucket has no cluster map");
    cluster::NodeId target = map_->ActiveFor(vb);
    if (target == cluster::kNoNode) {
      // Every copy of this vBucket was lost at failover. Refresh once in
      // case a recovery just republished the map, then fail fast: no
      // amount of retrying materializes an active, so burning the backoff
      // budget only delays the caller's error handling.
      RefreshMap();
      if (map_) target = map_->ActiveFor(vb);
      if (target == cluster::kNoNode) {
        no_active_->Add();
        op_errors_->Add();
        return Status::TempFail("no active node for vbucket " +
                                std::to_string(vb) +
                                " (all copies failed over)");
      }
    }
    cluster::Node* n = cluster_->node(target);
    if (n == nullptr) {
      RefreshMap();
      continue;
    }
    // Both legs of the op cross the network: a lost request means it never
    // ran; a lost reply means it ran but we can't know (ambiguous outcome —
    // the retry may then see e.g. KeyExists from its own first attempt).
    auto result =
        net::Call(cluster_->transport(), endpoint_,
                  net::Endpoint::Node(target), [&] { return op(n, vb); });
    if (result.ok()) return result;
    last = result.status();
    if (last.IsNotMyVBucket() || last.IsTempFail()) {
      // Topology moved under us (rebalance/failover), the node is
      // overloaded/down, or the transport dropped a message: refresh the
      // cached map and retry with backoff, as SDKs do.
      RefreshMap();
      continue;
    }
    return result;  // semantic error (NotFound, CAS mismatch, ...): surface
  }
  op_errors_->Add();
  return last;
}

StatusOr<GetReply> SmartClient::Get(std::string_view key) {
  trace::Span span("client.get", get_ns_);
  return WithRouting(key,
                     [&](cluster::Node* n, uint16_t vb) -> StatusOr<GetReply> {
                       auto r = n->Get(bucket_, vb, key);
                       if (!r.ok()) return r.status();
                       GetReply reply;
                       reply.key = std::string(key);
                       reply.value = std::move(r->doc.value);
                       reply.cas = r->doc.meta.cas;
                       reply.flags = r->doc.meta.flags;
                       return reply;
                     });
}

StatusOr<json::Value> SmartClient::GetJson(std::string_view key) {
  auto r = Get(key);
  if (!r.ok()) return r.status();
  return json::Parse(r->value);
}

namespace {
StatusOr<MutateReply> FinishMutation(cluster::Cluster* cluster,
                                     const std::string& bucket, uint16_t vb,
                                     const StatusOr<kv::DocMeta>& meta,
                                     const cluster::Durability& dur) {
  if (!meta.ok()) return meta.status();
  Status st = cluster->WaitForDurability(bucket, vb, meta->seqno, dur);
  if (!st.ok()) return st;
  MutateReply reply;
  reply.cas = meta->cas;
  reply.seqno = meta->seqno;
  reply.vbucket = vb;
  return reply;
}
}  // namespace

StatusOr<MutateReply> SmartClient::Upsert(std::string_view key,
                                          std::string_view value,
                                          const WriteOptions& opts) {
  trace::Span span("client.upsert", mutate_ns_);
  return WithRouting(
      key, [&](cluster::Node* n, uint16_t vb) -> StatusOr<MutateReply> {
        auto meta =
            n->Set(bucket_, vb, key, value, opts.flags, opts.expiry, opts.cas);
        return FinishMutation(cluster_, bucket_, vb, meta, opts.durability);
      });
}

StatusOr<MutateReply> SmartClient::Insert(std::string_view key,
                                          std::string_view value,
                                          const WriteOptions& opts) {
  trace::Span span("client.insert", mutate_ns_);
  return WithRouting(
      key, [&](cluster::Node* n, uint16_t vb) -> StatusOr<MutateReply> {
        auto meta = n->Add(bucket_, vb, key, value, opts.flags, opts.expiry);
        return FinishMutation(cluster_, bucket_, vb, meta, opts.durability);
      });
}

StatusOr<MutateReply> SmartClient::Replace(std::string_view key,
                                           std::string_view value,
                                           const WriteOptions& opts) {
  trace::Span span("client.replace", mutate_ns_);
  return WithRouting(
      key, [&](cluster::Node* n, uint16_t vb) -> StatusOr<MutateReply> {
        auto meta = n->Replace(bucket_, vb, key, value, opts.flags,
                               opts.expiry, opts.cas);
        return FinishMutation(cluster_, bucket_, vb, meta, opts.durability);
      });
}

StatusOr<MutateReply> SmartClient::Remove(std::string_view key, uint64_t cas,
                                          const cluster::Durability& dur) {
  trace::Span span("client.remove", mutate_ns_);
  return WithRouting(
      key, [&](cluster::Node* n, uint16_t vb) -> StatusOr<MutateReply> {
        auto meta = n->Remove(bucket_, vb, key, cas);
        return FinishMutation(cluster_, bucket_, vb, meta, dur);
      });
}

StatusOr<MutateReply> SmartClient::UpsertJson(std::string_view key,
                                              const json::Value& value,
                                              const WriteOptions& opts) {
  return Upsert(key, value.ToJson(), opts);
}

StatusOr<GetReply> SmartClient::GetAndLock(std::string_view key,
                                           uint64_t lock_ms) {
  trace::Span span("client.getl", get_ns_);
  return WithRouting(key,
                     [&](cluster::Node* n, uint16_t vb) -> StatusOr<GetReply> {
                       auto r = n->GetAndLock(bucket_, vb, key, lock_ms);
                       if (!r.ok()) return r.status();
                       GetReply reply;
                       reply.key = std::string(key);
                       reply.value = std::move(r->doc.value);
                       reply.cas = r->doc.meta.cas;
                       reply.flags = r->doc.meta.flags;
                       return reply;
                     });
}

Status SmartClient::Unlock(std::string_view key, uint64_t cas) {
  auto r = WithRouting(
      key, [&](cluster::Node* n, uint16_t vb) -> StatusOr<bool> {
        Status st = n->Unlock(bucket_, vb, key, cas);
        if (!st.ok()) return st;
        return true;
      });
  return r.ok() ? Status::OK() : r.status();
}

StatusOr<json::Value> SmartClient::LookupIn(std::string_view key,
                                            std::string_view path) {
  auto doc = GetJson(key);
  if (!doc.ok()) return doc.status();
  return doc->GetPath(path);
}

namespace {
constexpr int kSubdocRetries = 32;
}

StatusOr<MutateReply> SmartClient::MutateIn(std::string_view key,
                                            std::string_view path,
                                            const json::Value& value) {
  uint64_t backoff_us = retry_.initial_backoff_us;
  for (int attempt = 0; attempt < kSubdocRetries; ++attempt) {
    if (attempt > 0) Backoff(&backoff_us);
    auto reply = Get(key);
    if (!reply.ok()) return reply.status();
    auto doc = json::Parse(reply->value);
    if (!doc.ok()) return doc.status();
    if (!doc->SetPath(path, value)) {
      return Status::InvalidArgument("cannot set path " + std::string(path));
    }
    WriteOptions opts;
    opts.cas = reply->cas;
    auto result = Replace(key, doc->ToJson(), opts);
    if (result.ok()) return result;
    if (!result.status().IsKeyExists() && !result.status().IsLocked()) {
      return result.status();
    }
    // CAS conflict: re-read and retry.
  }
  return Status::TempFail("sub-document CAS retries exhausted");
}

StatusOr<MutateReply> SmartClient::RemoveIn(std::string_view key,
                                            std::string_view path) {
  uint64_t backoff_us = retry_.initial_backoff_us;
  for (int attempt = 0; attempt < kSubdocRetries; ++attempt) {
    if (attempt > 0) Backoff(&backoff_us);
    auto reply = Get(key);
    if (!reply.ok()) return reply.status();
    auto doc = json::Parse(reply->value);
    if (!doc.ok()) return doc.status();
    if (!doc->RemovePath(path)) {
      return Status::NotFound("path missing: " + std::string(path));
    }
    WriteOptions opts;
    opts.cas = reply->cas;
    auto result = Replace(key, doc->ToJson(), opts);
    if (result.ok()) return result;
    if (!result.status().IsKeyExists() && !result.status().IsLocked()) {
      return result.status();
    }
  }
  return Status::TempFail("sub-document CAS retries exhausted");
}

StatusOr<int64_t> SmartClient::Increment(std::string_view key, int64_t delta,
                                         int64_t initial) {
  uint64_t backoff_us = retry_.initial_backoff_us;
  for (int attempt = 0; attempt < kSubdocRetries * 4; ++attempt) {
    if (attempt > 0) Backoff(&backoff_us);
    auto reply = Get(key);
    if (reply.status().IsNotFound()) {
      auto created =
          Insert(key, json::Value::Int(initial + delta).ToJson());
      if (created.ok()) return initial + delta;
      if (!created.status().IsKeyExists()) return created.status();
      continue;  // someone else created it: retry the read
    }
    if (!reply.ok()) return reply.status();
    auto doc = json::Parse(reply->value);
    if (!doc.ok() || !doc->is_number()) {
      return Status::InvalidArgument("counter document is not a number");
    }
    int64_t next = doc->AsInt() + delta;
    WriteOptions opts;
    opts.cas = reply->cas;
    auto result = Replace(key, json::Value::Int(next).ToJson(), opts);
    if (result.ok()) return next;
    if (!result.status().IsKeyExists() && !result.status().IsLocked()) {
      return result.status();
    }
  }
  return Status::TempFail("counter CAS retries exhausted");
}

ClusterStatsResult SmartClient::ClusterStats(const std::string& group) {
  ClusterStatsResult result;
  for (cluster::NodeId id : cluster_->node_ids()) {
    NodeStatsResult entry;
    entry.node = id;
    cluster::Node* n = cluster_->node(id);
    if (n == nullptr) {
      entry.error = "node removed";
      result.nodes.push_back(std::move(entry));
      continue;
    }
    auto snap = net::Call(cluster_->transport(), endpoint_,
                          net::Endpoint::Node(id),
                          [&] { return n->Stats(group); });
    if (snap.ok()) {
      entry.reachable = true;
      entry.stats = std::move(*snap);
    } else {
      entry.error = snap.status().ToString();
    }
    result.nodes.push_back(std::move(entry));
  }
  return result;
}

Status SmartClient::Touch(std::string_view key, uint32_t expiry) {
  trace::Span span("client.touch", mutate_ns_);
  auto r = WithRouting(
      key, [&](cluster::Node* n, uint16_t vb) -> StatusOr<bool> {
        auto meta = n->Touch(bucket_, vb, key, expiry);
        if (!meta.ok()) return meta.status();
        return true;
      });
  return r.ok() ? Status::OK() : r.status();
}

}  // namespace couchkv::client
