// couchkv_perfbench: the repository benchmark.
//
// One process builds an in-process 3-node cluster (1 replica, in-memory
// disks with free fsync), preloads ~1 KiB JSON documents, then drives one
// closed-loop client thread through the public client, query and cluster
// APIs for --seconds. Every answer is checked against what the client
// itself wrote. The last stdout line is one JSON report: end-to-end metrics
// without --trace, per-layer metrics with it.
//
// Workloads (see perfbench/README.md for why each exists):
//   kv_read_mostly    95% Get / 5% memory-ack Upsert, zipfian, WireClient
//   kv_durable_write  50% Get / 50% Upsert replicate_to=1 persist_to=1,
//                     uniform, WireClient; then crash+restart one node and
//                     read every acked key back
//   query_range       YCSB-E: 95% primary-index range query through
//                     QueryService, 5% inserts of new keys via SmartClient
//
// Nothing here changes the program under test: timings come from spans the
// benchmark records around public calls, the ServerTiming frame the server
// already returns, and stats::Registry deltas.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "client/smart_client.h"
#include "client/wire_client.h"
#include "cluster/cluster.h"
#include "common/random.h"
#include "gsi/index_service.h"
#include "n1ql/parser.h"
#include "n1ql/query_service.h"
#include "stats/registry.h"
#include "views/view_engine.h"

namespace couchkv::perfbench {
namespace {

constexpr char kBucket[] = "default";
constexpr int kNodes = 3;
constexpr size_t kValueBytes = 1024;
constexpr char kScanQuery[] =
    "SELECT meta().id AS id FROM `default` WHERE meta().id >= $1 LIMIT $2";
constexpr uint64_t kMaxScanLength = 100;
// Preload threads (SmartClient, in-process).
constexpr int kLoaders = 2;
// The timed phase runs in slices. Untraced runs report the median over
// 1 s slices of throughput and CPU per op, so a burst of noise from other
// tenants of the host moves one slice, not the figure. Traced runs alternate
// untraced and traced 250 ms slices, so the tracing overhead is measured
// against the same cluster state and drift.
constexpr uint64_t kSliceNs = 1'000'000'000;
constexpr uint64_t kTraceSliceNs = 250'000'000;
// The idle window after set-up is split into this many sub-windows.
constexpr int kIdleWindows = 6;
// Ops replayed by the post-phase probes of a traced run.
constexpr size_t kProbeOps = 2000;

enum class Workload { kReadMostly, kDurableWrite, kQueryRange };

struct Options {
  Workload workload = Workload::kReadMostly;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint64_t docs = 100000;
  int setups = 3;
  uint64_t idle_ms = 3000;
  // Test hooks: corrupt the answer of the Nth Get / query (1-based) before
  // it is checked, proving the checks catch a wrong answer.
  uint64_t corrupt_read = 0;
  uint64_t corrupt_query = 0;
  std::string spans_out;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void MustOk(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1000ull;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Inputs. Keys sort in record order, so range-scan answers are predictable.
// A value names its key and version: {"k":"<key>","v":<n>,"p":"<pad>"},
// exactly kValueBytes long, with the pad drawn from (seed, record, version).

std::string KeyFor(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%012llu",
                static_cast<unsigned long long>(i));
  return buf;
}

std::string ValuePrefix(const std::string& key, uint32_t version) {
  return "{\"k\":\"" + key + "\",\"v\":" + std::to_string(version) + ",";
}

std::string ValueFor(uint64_t seed, uint64_t record, uint32_t version) {
  std::string key = KeyFor(record);
  std::string v = ValuePrefix(key, version) + "\"p\":\"";
  Rng rng(seed * 0x9E3779B97F4A7C15ull ^ (record << 20) ^ version);
  while (v.size() < kValueBytes - 2) {
    uint64_t bits = rng.Next();
    for (int b = 0; b < 8 && v.size() < kValueBytes - 2; ++b, bits >>= 8) {
      v.push_back(static_cast<char>('a' + (bits & 0xff) % 26));
    }
  }
  v += "\"}";
  return v;
}

bool ValueMatches(const std::string& value, const std::string& key,
                  uint32_t version) {
  const std::string prefix = ValuePrefix(key, version);
  return value.size() == kValueBytes &&
         value.compare(0, prefix.size(), prefix) == 0;
}

// ---------------------------------------------------------------------------
// The system under test.

// Members are destroyed in reverse order: the services, which hold raw
// cluster pointers, go before the cluster.
struct Bed {
  std::unique_ptr<cluster::Cluster> cluster;
  std::shared_ptr<gsi::IndexService> gsi;
  std::shared_ptr<views::ViewEngine> views;
  std::unique_ptr<n1ql::QueryService> queries;
  std::vector<uint16_t> ports;
};

std::unique_ptr<Bed> Setup(const Options& o) {
  auto bed = std::make_unique<Bed>();
  cluster::ClusterOptions copts;
  copts.simulated_fsync_us = 0;
  bed->cluster = std::make_unique<cluster::Cluster>(copts);
  for (int i = 0; i < kNodes; ++i) bed->cluster->AddNode(cluster::kAllServices);
  cluster::BucketConfig config;
  config.name = kBucket;
  config.num_replicas = 1;
  MustOk(bed->cluster->CreateBucket(config), "create bucket");
  if (o.workload == Workload::kQueryRange) {
    bed->gsi = std::make_shared<gsi::IndexService>(bed->cluster.get());
    bed->gsi->Attach();
    bed->views = std::make_shared<views::ViewEngine>(bed->cluster.get());
    bed->views->Attach();
    bed->queries = std::make_unique<n1ql::QueryService>(bed->cluster.get(),
                                                        bed->gsi, bed->views);
  } else {
    MustOk(bed->cluster->StartWireServers(kBucket), "start wire servers");
    for (cluster::NodeId id : bed->cluster->node_ids()) {
      bed->ports.push_back(bed->cluster->wire_port(id));
    }
  }

  std::atomic<uint64_t> next{0};
  std::atomic<bool> load_failed{false};
  std::vector<std::thread> loaders;
  for (int t = 0; t < kLoaders; ++t) {
    loaders.emplace_back([&] {
      client::SmartClient client(bed->cluster.get(), kBucket);
      for (;;) {
        uint64_t i = next.fetch_add(1);
        if (i >= o.docs) break;
        if (!client.Upsert(KeyFor(i), ValueFor(o.seed, i, 1)).ok()) {
          load_failed.store(true);
        }
      }
    });
  }
  for (auto& t : loaders) t.join();
  if (load_failed.load()) Die("preload upsert failed");
  bed->cluster->Quiesce();

  if (o.workload == Workload::kQueryRange) {
    auto r = bed->queries->Execute("CREATE PRIMARY INDEX ON `default` USING GSI");
    if (!r.ok()) Die("create primary index: " + r.status().ToString());
    MustOk(bed->gsi->WaitUntilCaughtUp(kBucket, "#primary", 120000),
           "primary index catch-up");
  }
  return bed;
}

// ---------------------------------------------------------------------------
// Spans: one per public call in traced slices, kept in memory and written
// when the run ends. Server phases come from the reply's ServerTiming frame
// and carry durations only (the frame has no start times).

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trace_id = 0;
  const char* name = "";
  uint64_t start_ns = 0;  // 0 = unknown (server phases)
  uint64_t dur_ns = 0;
};

class Tracer {
 public:
  // A root span with no server trace id (an in-process call) becomes a
  // trace of its own, named by its span id.
  uint64_t Add(const char* name, uint64_t trace_id, uint64_t start_ns,
               uint64_t dur_ns, uint64_t parent = 0) {
    ++next_id_;
    if (trace_id == 0 && parent == 0) trace_id = next_id_;
    spans_.push_back({next_id_, parent, trace_id, name, start_ns, dur_ns});
    return next_id_;
  }
  // Attaches the server's phases as children of op span `parent`.
  void AddServer(uint64_t parent, const client::ServerTiming& s) {
    Add("server.total", s.trace_id, 0, s.total_us * 1000ull, parent);
    Add("server.dispatch", s.trace_id, 0, s.dispatch_us * 1000ull, parent);
    Add("server.engine", s.trace_id, 0, s.engine_us * 1000ull, parent);
    Add("server.replicate", s.trace_id, 0, s.replicate_us * 1000ull, parent);
    Add("server.persist", s.trace_id, 0, s.persist_us * 1000ull, parent);
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Durations of every span named `name` (or, if `parent_name` is set,
  // every such span whose parent is named `parent_name`).
  std::vector<uint64_t> Durations(const char* name,
                                  const char* parent_name = nullptr) const {
    std::vector<uint64_t> out;
    std::map<uint64_t, const char*> names;
    if (parent_name != nullptr) {
      for (const Span& s : spans_) names[s.id] = s.name;
    }
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) != 0) continue;
      if (parent_name != nullptr &&
          std::strcmp(names[s.parent], parent_name) != 0) {
        continue;
      }
      out.push_back(s.dur_ns);
    }
    return out;
  }

  // Client time minus the server's reported total, per op span `op`.
  std::vector<uint64_t> Gaps(const char* op) const {
    std::map<uint64_t, uint64_t> total;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, "server.total") == 0) total[s.parent] = s.dur_ns;
    }
    std::vector<uint64_t> out;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, op) != 0) continue;
      auto it = total.find(s.id);
      if (it == total.end()) continue;
      out.push_back(s.dur_ns > it->second ? s.dur_ns - it->second : 0);
    }
    return out;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"trace_id\":%llu,"
                   "\"name\":\"%s\",\"start_ns\":%llu,\"dur_ns\":%llu}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.trace_id), s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.dur_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

// Exact nearest-rank percentile of nanosecond samples, in microseconds.
double PercentileUs(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]) / 1e3;
}

// ---------------------------------------------------------------------------
// Registry deltas, summed over nodes.

uint64_t SumCounters(const stats::Snapshot& d, const std::string& suffix) {
  uint64_t sum = 0;
  for (const auto& [name, v] : d) {
    if (v.kind == stats::MetricValue::Kind::kCounter &&
        name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += v.counter;
    }
  }
  return sum;
}

int64_t SumGauges(const stats::Snapshot& d, const std::string& suffix) {
  int64_t sum = 0;
  for (const auto& [name, v] : d) {
    if (v.kind == stats::MetricValue::Kind::kGauge &&
        name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += v.gauge;
    }
  }
  return sum;
}

HistogramSnapshot MergeHistograms(const stats::Snapshot& d,
                                  const std::string& suffix) {
  HistogramSnapshot h;
  for (const auto& [name, v] : d) {
    if (v.kind == stats::MetricValue::Kind::kHistogram &&
        name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      h.Merge(v.hist);
    }
  }
  return h;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// The timed phase.

struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t durable_lost = 0;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

class Runner {
 public:
  Runner(const Options& o, Bed* bed)
      : o_(o),
        bed_(bed),
        rng_(o.seed * 7919 + 17),
        zipf_(o.docs),
        versions_(o.docs, 1),
        write_state_(o.docs, kUnwritten) {
    if (!bed->ports.empty()) {
      wire_ = std::make_unique<client::WireClient>(bed->ports, kBucket,
                                                   client::RetryPolicy{},
                                                   o.seed);
    }
    smart_ = std::make_unique<client::SmartClient>(bed->cluster.get(), kBucket);
  }

  // Runs closed-loop ops until `end_ns`; `traced` records spans.
  void RunUntil(uint64_t end_ns, bool traced) {
    while (NowNs() < end_ns) {
      switch (o_.workload) {
        case Workload::kReadMostly:
          KvOp(zipf_.Next(rng_), rng_.Uniform(100) < 95, {}, traced);
          break;
        case Workload::kDurableWrite:
          KvOp(rng_.Uniform(o_.docs), rng_.Uniform(2) == 0,
               cluster::Durability{1, 1, 2500}, traced);
          break;
        case Workload::kQueryRange:
          if (rng_.Uniform(100) < 95) {
            QueryOp(zipf_.Next(rng_), rng_.UniformRange(1, kMaxScanLength),
                    traced);
          } else {
            InsertOp(traced);
          }
          break;
      }
    }
  }

  // After a kv_durable_write phase: crash and restart one node, then read
  // back every key this client wrote. All its writes were acked with
  // persist_to=1, so each must come back at its last acked version.
  uint64_t CrashAndVerify() {
    cluster::NodeId victim =
        bed_->cluster->node_ids()[o_.seed % bed_->cluster->node_ids().size()];
    MustOk(bed_->cluster->CrashNode(victim), "crash node");
    MustOk(bed_->cluster->RestartNode(victim), "restart node");
    bed_->cluster->Quiesce();
    client::SmartClient reader(bed_->cluster.get(), kBucket);
    uint64_t lost = 0;
    for (uint64_t i = 0; i < o_.docs; ++i) {
      if (write_state_[i] != kAcked) continue;
      std::string key = KeyFor(i);
      auto r = reader.Get(key);
      if (!r.ok() || !ValueMatches(r->value, key, versions_[i])) ++lost;
    }
    return lost;
  }

  // Post-phase probes for a traced run: the same Get keys through the
  // in-process SmartClient (the no-wire floor), the statement through the
  // parser alone, and the same scans straight against the index.
  void Probe() {
    size_t n = std::min(kProbeOps, probe_keys_.size());
    for (size_t j = 0; j < n; ++j) {
      uint64_t i = probe_keys_[probe_keys_.size() - n + j];
      std::string key = KeyFor(i);
      uint64_t t0 = NowNs();
      auto r = smart_->Get(key);
      uint64_t t1 = NowNs();
      tracer_.Add("SmartClient::Get", 0, t0, t1 - t0);
      CountAnswer(r.ok() && (write_state_[i] == kFailed ||
                             ValueMatches(r->value, key, versions_[i])));
    }
    if (o_.workload != Workload::kQueryRange) return;
    for (size_t j = 0; j < kProbeOps / 10; ++j) {
      uint64_t t0 = NowNs();
      auto stmt = n1ql::ParseStatement(kScanQuery);
      uint64_t t1 = NowNs();
      if (!stmt.ok()) Die("parse: " + stmt.status().ToString());
      tracer_.Add("n1ql::ParseStatement", 0, t0, t1 - t0);
    }
    uint64_t entries = 0, rows = 0;
    for (size_t j = 0; j < std::min(kProbeOps, probe_scans_.size()); ++j) {
      const auto& [start, len, got] = probe_scans_[j];
      gsi::ScanRange range;
      range.lo = json::Value::Str(KeyFor(start));
      auto r = bed_->gsi->Scan(kBucket, "#primary", range, len,
                               gsi::ScanConsistency::kNotBounded);
      if (!r.ok()) Die("probe scan: " + r.status().ToString());
      entries += r->size();
      rows += got;
    }
    gsi_keys_per_row_ = Ratio(static_cast<double>(entries),
                              static_cast<double>(rows));
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t user_bytes_written() const { return user_bytes_written_; }
  uint64_t docs_fetched() const { return docs_fetched_; }
  uint64_t rows_returned() const { return rows_returned_; }
  double gsi_keys_per_row() const { return gsi_keys_per_row_; }
  const std::vector<uint64_t>& get_ns() const { return get_ns_; }
  const std::vector<uint64_t>& write_ns() const { return write_ns_; }
  const std::vector<uint64_t>& query_ns() const { return query_ns_; }
  const Tracer& tracer() const { return tracer_; }

 private:
  void CountAnswer(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  void KvOp(uint64_t i, bool read, const cluster::Durability& dur,
            bool traced) {
    std::string key = KeyFor(i);
    if (read) {
      uint64_t t0 = NowNs();
      auto r = wire_->Get(key);
      uint64_t t1 = NowNs();
      get_ns_.push_back(t1 - t0);
      bool ok = r.ok();
      if (ok) {
        if (++reads_ == o_.corrupt_read) r->value += "!";
        ok = write_state_[i] == kFailed ||
             ValueMatches(r->value, key, versions_[i]);
      }
      CountAnswer(ok);
      if (traced) {
        uint64_t id = tracer_.Add("WireClient::Get",
                                  r.ok() ? r->server.trace_id : 0, t0, t1 - t0);
        if (r.ok()) tracer_.AddServer(id, r->server);
        probe_keys_.push_back(i);
      }
      return;
    }
    const uint32_t version = ++versions_[i];
    std::string value = ValueFor(o_.seed, i, version);
    client::WriteOptions wopts;
    wopts.durability = dur;
    uint64_t t0 = NowNs();
    auto r = wire_->Upsert(key, value, wopts);
    uint64_t t1 = NowNs();
    write_ns_.push_back(t1 - t0);
    CountAnswer(r.ok());
    // An unacked write may or may not have landed: the key is not checked
    // again until a later write to it is acked.
    write_state_[i] = r.ok() ? kAcked : kFailed;
    user_bytes_written_ += key.size() + value.size();
    if (traced) {
      uint64_t id = tracer_.Add("WireClient::Upsert",
                                r.ok() ? r->server.trace_id : 0, t0, t1 - t0);
      if (r.ok()) tracer_.AddServer(id, r->server);
    }
  }

  void QueryOp(uint64_t start, uint64_t len, bool traced) {
    n1ql::QueryOptions qopts;
    qopts.params = {json::Value::Str(KeyFor(start)),
                    json::Value::Int(static_cast<int64_t>(len))};
    uint64_t t0 = NowNs();
    auto r = bed_->queries->Execute(kScanQuery, qopts);
    uint64_t t1 = NowNs();
    query_ns_.push_back(t1 - t0);
    if (traced) tracer_.Add("QueryService::Execute", 0, t0, t1 - t0);
    if (!r.ok()) {
      CountAnswer(false);
      return;
    }
    if (++queries_ == o_.corrupt_query && !r->rows.empty()) {
      r->rows.front() = json::Value::MakeObject();
    }
    docs_fetched_ += r->metrics.docs_fetched;
    rows_returned_ += r->rows.size();
    CountAnswer(ScanAnswerOk(start, len, r->rows));
    if (traced) {
      probe_keys_.push_back(start);
      probe_scans_.push_back({start, len, r->rows.size()});
    }
  }

  // Rows must be sorted ids >= the start key, at most `len` of them, and
  // exactly the next preloaded keys as far as the preloaded keyspace
  // reaches (inserted keys all sort after every preloaded key).
  bool ScanAnswerOk(uint64_t start, uint64_t len,
                    const std::vector<json::Value>& rows) const {
    if (rows.size() > len) return false;
    const uint64_t preloaded = std::min<uint64_t>(len, o_.docs - start);
    if (rows.size() < preloaded) return false;
    std::string prev;
    for (size_t j = 0; j < rows.size(); ++j) {
      if (!rows[j].is_object()) return false;
      const json::Value& id = rows[j].Field("id");
      if (!id.is_string()) return false;
      const std::string& s = id.AsString();
      if (j < preloaded ? s != KeyFor(start + j)
                        : (s <= prev || s < KeyFor(o_.docs))) {
        return false;
      }
      prev = s;
    }
    return true;
  }

  void InsertOp(bool traced) {
    uint64_t i = o_.docs + inserted_++;
    std::string key = KeyFor(i);
    std::string value = ValueFor(o_.seed, i, 1);
    uint64_t t0 = NowNs();
    auto r = smart_->Insert(key, value);
    uint64_t t1 = NowNs();
    write_ns_.push_back(t1 - t0);
    if (traced) tracer_.Add("SmartClient::Insert", 0, t0, t1 - t0);
    CountAnswer(r.ok());
    user_bytes_written_ += key.size() + value.size();
  }

  const Options& o_;
  Bed* bed_;
  Rng rng_;
  ZipfianGenerator zipf_;
  std::unique_ptr<client::WireClient> wire_;
  std::unique_ptr<client::SmartClient> smart_;
  enum WriteState : uint8_t { kUnwritten, kAcked, kFailed };
  std::vector<uint32_t> versions_;  // last version written to each key
  std::vector<uint8_t> write_state_;  // of that last write
  uint64_t inserted_ = 0;
  uint64_t reads_ = 0;
  uint64_t queries_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t user_bytes_written_ = 0;
  uint64_t docs_fetched_ = 0;
  uint64_t rows_returned_ = 0;
  double gsi_keys_per_row_ = 0;
  std::vector<uint64_t> get_ns_, write_ns_, query_ns_;
  Tracer tracer_;
  std::vector<uint64_t> probe_keys_;
  std::vector<std::tuple<uint64_t, uint64_t, size_t>> probe_scans_;
};

// Scrapes every node (refreshing bucket gauges) plus the global scopes.
stats::Snapshot Scrape(cluster::Cluster* c) {
  stats::Snapshot s = stats::Registry::Global().Collect();
  for (cluster::NodeId id : c->node_ids()) {
    auto node_stats = c->node(id)->Stats("dcp");
    if (node_stats.ok()) {
      for (auto& [k, v] : *node_stats) s[k] = v;
    }
  }
  return s;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// One slice of the timed phase.
struct Slice {
  uint64_t ns = 0;
  uint64_t ops = 0;
  uint64_t cpu_ns = 0;
  bool traced = false;
};

void AddEndToEnd(const Options& o, const Runner& run, double setup_s,
                 double idle_cpu_pct, const std::vector<Slice>& slices,
                 Report* rep) {
  std::vector<double> rate, cpu;
  for (const Slice& s : slices) {
    rate.push_back(Ratio(static_cast<double>(s.ops) * 1e9,
                         static_cast<double>(s.ns)));
    cpu.push_back(Ratio(static_cast<double>(s.cpu_ns) / 1e3,
                        static_cast<double>(s.ops)));
  }
  const bool query = o.workload == Workload::kQueryRange;
  const std::vector<uint64_t>& reads = query ? run.query_ns() : run.get_ns();
  const std::vector<uint64_t>& writes = run.write_ns();
  rep->Add("setup_s", setup_s, "s");
  rep->Add("ops_per_s", Median(rate), "1/s");
  rep->Add("read_p50_us", PercentileUs(reads, 0.50), "us");
  rep->Add("write_p50_us", PercentileUs(writes, 0.50), "us");
  rep->Add("cpu_us_per_op", Median(cpu), "us");
  rep->Add("idle_cpu_pct", idle_cpu_pct, "%");
  // The same ops under each op's own name, with their tails.
  const std::string read_op = query ? "query" : "get";
  const std::string write_op = query ? "insert" : "upsert";
  rep->Add(read_op + "_p50_us", PercentileUs(reads, 0.50), "us");
  rep->Add(read_op + "_p99_us", PercentileUs(reads, 0.99), "us");
  rep->Add(write_op + "_p50_us", PercentileUs(writes, 0.50), "us");
  rep->Add(write_op + "_p99_us", PercentileUs(writes, 0.99), "us");
}

// `timed_ops` excludes the post-phase probes.
void AddPerLayer(const Options& o, const Runner& run, uint64_t timed_ops,
                 const stats::Snapshot& d, uint64_t thread_cpu_ns,
                 double overhead_pct, Report* rep) {
  const Tracer& tr = run.tracer();
  const double ops = static_cast<double>(timed_ops);
  rep->Add("trace.overhead_pct", overhead_pct, "%");
  rep->Add("client.cpu_us_per_op",
           Ratio(static_cast<double>(thread_cpu_ns) / 1e3, ops), "us");

  // net: client time the server does not account for.
  rep->Add("net.get_gap_p50_us", PercentileUs(tr.Gaps("WireClient::Get"), 0.5),
           "us");
  rep->Add("net.get_gap_p99_us",
           PercentileUs(tr.Gaps("WireClient::Get"), 0.99), "us");
  rep->Add("net.upsert_gap_p50_us",
           PercentileUs(tr.Gaps("WireClient::Upsert"), 0.5), "us");
  rep->Add("net.bytes_per_op",
           Ratio(static_cast<double>(SumCounters(d, "wire.server.bytes_in") +
                                     SumCounters(d, "wire.server.bytes_out")),
                 ops),
           "B");
  rep->Add("net.frames_per_op",
           Ratio(static_cast<double>(SumCounters(d, "wire.server.frames")), ops),
           "count");

  // cluster: the server's own phases, and the no-wire floor.
  rep->Add("cluster.get_server_p50_us",
           PercentileUs(tr.Durations("server.total", "WireClient::Get"), 0.5),
           "us");
  rep->Add("cluster.dispatch_p50_us",
           PercentileUs(tr.Durations("server.dispatch", "WireClient::Get"),
                        0.5),
           "us");
  rep->Add("cluster.engine_p50_us",
           PercentileUs(tr.Durations("server.engine", "WireClient::Get"), 0.5),
           "us");
  auto replicate = tr.Durations("server.replicate", "WireClient::Upsert");
  auto persist = tr.Durations("server.persist", "WireClient::Upsert");
  rep->Add("cluster.replicate_p50_us", PercentileUs(replicate, 0.5), "us");
  rep->Add("cluster.replicate_p99_us", PercentileUs(replicate, 0.99), "us");
  rep->Add("cluster.persist_p50_us", PercentileUs(persist, 0.5), "us");
  rep->Add("cluster.persist_p99_us", PercentileUs(persist, 0.99), "us");
  rep->Add("cluster.inproc_get_p50_us",
           PercentileUs(tr.Durations("SmartClient::Get"), 0.5), "us");

  // kv: the hash tables, from the registry.
  rep->Add("kv.get_p50_ns",
           static_cast<double>(MergeHistograms(d, ".kv.get_ns").Percentile(0.5)),
           "ns");
  rep->Add(
      "kv.mutate_p50_ns",
      static_cast<double>(MergeHistograms(d, ".kv.mutate_ns").Percentile(0.5)),
      "ns");
  const double hits = static_cast<double>(SumCounters(d, ".kv.hits"));
  rep->Add("kv.hit_ratio",
           Ratio(hits, hits + static_cast<double>(SumCounters(d, ".kv.misses"))),
           "ratio");

  // dcp.
  rep->Add("dcp.delivered_per_appended",
           Ratio(static_cast<double>(SumCounters(d, ".dcp.items_delivered")),
                 static_cast<double>(SumCounters(d, ".dcp.items_appended"))),
           "ratio");
  rep->Add("dcp.backfill_items",
           static_cast<double>(SumCounters(d, ".dcp.backfill_items")), "count");
  rep->Add("dcp.backlog_end", static_cast<double>(SumGauges(d, ".dcp.backlog")),
           "count");

  // storage and flusher.
  rep->Add("storage.write_amp",
           Ratio(static_cast<double>(SumCounters(d, ".storage.bytes_appended")),
                 static_cast<double>(run.user_bytes_written())),
           "ratio");
  rep->Add("storage.commits_per_kop",
           Ratio(static_cast<double>(SumCounters(d, ".storage.commits")),
                 ops / 1000.0),
           "count");
  rep->Add("storage.commit_p50_us",
           static_cast<double>(
               MergeHistograms(d, ".storage.commit_ns").Percentile(0.5)) /
               1e3,
           "us");
  rep->Add("flusher.docs_per_batch",
           Ratio(static_cast<double>(SumCounters(d, ".flusher.batch_docs")),
                 static_cast<double>(SumCounters(d, ".flusher.batches"))),
           "count");
  rep->Add("flusher.flush_p50_us",
           static_cast<double>(
               MergeHistograms(d, ".flusher.flush_ns").Percentile(0.5)) /
               1e3,
           "us");
  rep->Add("flusher.flush_retries",
           static_cast<double>(SumCounters(d, ".flusher.flush_retries")),
           "count");
  rep->Add("storage.compactions",
           static_cast<double>(SumCounters(d, ".storage.compactions")),
           "count");

  // n1ql and gsi.
  const bool query = o.workload == Workload::kQueryRange;
  double parse_p50 = PercentileUs(tr.Durations("n1ql::ParseStatement"), 0.5);
  double exec_p50 = PercentileUs(tr.Durations("QueryService::Execute"), 0.5);
  rep->Add("n1ql.parse_p50_us", parse_p50, "us");
  rep->Add("n1ql.exec_p50_us", query ? exec_p50 - parse_p50 : 0, "us");
  rep->Add("n1ql.docs_fetched_per_row",
           Ratio(static_cast<double>(run.docs_fetched()),
                 static_cast<double>(run.rows_returned())),
           "ratio");
  HistogramSnapshot scan = MergeHistograms(d, "gsi.scan_ns");
  rep->Add("gsi.scan_p50_us", static_cast<double>(scan.Percentile(0.5)) / 1e3,
           "us");
  rep->Add("gsi.scan_p99_us", static_cast<double>(scan.Percentile(0.99)) / 1e3,
           "us");
  rep->Add("gsi.keys_per_row", run.gsi_keys_per_row(), "ratio");
  rep->Add("gsi.scan_retries",
           static_cast<double>(SumCounters(d, "gsi.scan_retries")), "count");
}

void PrintReport(const Options& o, const Report& rep) {
  std::string out = "{\"workload\":\"" + o.workload_name +
                    "\",\"seed\":" + std::to_string(o.seed) +
                    ",\"trace\":" + (o.trace ? "1" : "0") +
                    ",\"docs\":" + std::to_string(o.docs) +
                    ",\"attempted\":" + std::to_string(rep.attempted) +
                    ",\"failed\":" + std::to_string(rep.failed) +
                    ",\"durable_lost\":" + std::to_string(rep.durable_lost) +
                    ",\"metrics\":{";
  char buf[128];
  for (size_t j = 0; j < rep.metrics.size(); ++j) {
    const auto& [name, vu] = rep.metrics[j];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  j == 0 ? "" : ",", name.c_str(), vu.first, vu.second.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Run(const Options& o) {
  // Set up several times and report the median; keep the last cluster.
  std::vector<double> setup_s;
  std::unique_ptr<Bed> bed;
  for (int s = 0; s < o.setups; ++s) {
    bed.reset();
    uint64_t t0 = NowNs();
    bed = Setup(o);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // Quiet window: what the idle cluster burns, as the median of a few
  // sub-windows so one stray wakeup does not move it.
  std::vector<double> idle_pct;
  for (int w = 0; w < kIdleWindows; ++w) {
    uint64_t cpu0 = ProcessCpuNs(), wall0 = NowNs();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(o.idle_ms / kIdleWindows));
    idle_pct.push_back(100.0 * static_cast<double>(ProcessCpuNs() - cpu0) /
                       static_cast<double>(NowNs() - wall0));
  }

  Runner run(o, bed.get());
  stats::Snapshot before = Scrape(bed->cluster.get());
  const uint64_t thread_cpu0 = ThreadCpuNs();
  const uint64_t t0 = NowNs();
  const uint64_t end = t0 + static_cast<uint64_t>(o.seconds * 1e9);
  std::vector<Slice> slices;
  bool traced = false;
  for (uint64_t slice_start = t0; slice_start < end;) {
    Slice s;
    s.traced = traced;
    const uint64_t ops0 = run.attempted(), cpu0 = ProcessCpuNs();
    run.RunUntil(std::min(end, slice_start + (o.trace ? kTraceSliceNs
                                                      : kSliceNs)),
                 traced);
    const uint64_t now = NowNs();
    s.ns = now - slice_start;
    s.ops = run.attempted() - ops0;
    s.cpu_ns = ProcessCpuNs() - cpu0;
    slices.push_back(s);
    slice_start = now;
    if (o.trace) traced = !traced;
  }
  const uint64_t thread_cpu_ns = ThreadCpuNs() - thread_cpu0;
  stats::Snapshot delta = stats::Delta(before, Scrape(bed->cluster.get()));
  const double peak_rss_mb = PeakRssMb();

  Report rep;
  if (o.trace) {
    const uint64_t timed_ops = run.attempted();
    run.Probe();
    double ns[2] = {0, 0}, ops[2] = {0, 0};  // [untraced, traced]
    for (const Slice& s : slices) {
      ns[s.traced] += static_cast<double>(s.ns);
      ops[s.traced] += static_cast<double>(s.ops);
    }
    const double overhead_pct =
        100.0 * (Ratio(ops[0], ns[0]) / Ratio(ops[1], ns[1]) - 1.0);
    AddPerLayer(o, run, timed_ops, delta, thread_cpu_ns, overhead_pct, &rep);
    if (!o.spans_out.empty() && !run.tracer().Write(o.spans_out)) {
      Die("cannot write " + o.spans_out);
    }
  } else {
    AddEndToEnd(o, run, Median(setup_s), Median(idle_pct), slices, &rep);
  }
  if (o.workload == Workload::kDurableWrite) {
    rep.durable_lost = run.CrashAndVerify();
  }
  rep.attempted = run.attempted();
  rep.failed = run.failed();
  if (!o.trace) {
    rep.Add("peak_rss_mb", peak_rss_mb, "MB");
    rep.Add("failed_ops_ratio",
            Ratio(static_cast<double>(rep.failed),
                  static_cast<double>(rep.attempted)),
            "ratio");
    rep.Add("durable_lost", static_cast<double>(rep.durable_lost), "count");
  }
  PrintReport(o, rep);
  return 0;
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Die(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload_name = next();
    } else if (a == "--seed") {
      o.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(next().c_str());
    } else if (a == "--trace") {
      o.trace = next() == "1";
    } else if (a == "--docs") {
      o.docs = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--setups") {
      o.setups = std::atoi(next().c_str());
    } else if (a == "--idle-ms") {
      o.idle_ms = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--corrupt-read") {
      o.corrupt_read = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--corrupt-query") {
      o.corrupt_query = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--spans-out") {
      o.spans_out = next();
    } else {
      Die("unknown argument " + a);
    }
  }
  if (o.workload_name == "kv_read_mostly") {
    o.workload = Workload::kReadMostly;
  } else if (o.workload_name == "kv_durable_write") {
    o.workload = Workload::kDurableWrite;
  } else if (o.workload_name == "query_range") {
    o.workload = Workload::kQueryRange;
  } else {
    Die("unknown --workload '" + o.workload_name + "'");
  }
  if (o.docs < kMaxScanLength || o.setups < 1 || o.seconds <= 0) {
    Die("bad --docs/--setups/--seconds");
  }
  return o;
}

}  // namespace
}  // namespace couchkv::perfbench

int main(int argc, char** argv) {
  return couchkv::perfbench::Run(couchkv::perfbench::ParseArgs(argc, argv));
}
