// Figure 16 reproduction: YCSB workload E — short N1QL range queries over
// meta().id — queries/sec vs client thread count (paper §10.1.2).
//
// Paper query: SELECT meta().id AS id FROM `bucket`
//              WHERE meta().id >= '$1' LIMIT $2
// Expected shape: throughput grows with threads, and is roughly an order of
// magnitude (paper: ~30x) below the raw KV throughput of Figure 15.
//
// The paper sweeps 48..128 client threads across four client machines. In
// one process that many threads only measure the scheduler, so the sweep
// here is 1, 2, 4, ... up to twice the host's cores: the rising flank.
#include <algorithm>
#include <thread>

#include "bench/bench_util.h"

using namespace couchkv;
using namespace couchkv::bench;

int main() {
  const uint64_t records = Scaled(100000);
  // Every sweep point runs about the same number of operations.
  const uint64_t ops_per_point = Scaled(4000);
  const size_t max_threads =
      2 * std::max(1u, std::thread::hardware_concurrency());

  TestBed bed(/*nodes=*/4);
  std::printf("loading %llu documents...\n",
              static_cast<unsigned long long>(records));
  LoadRecords(bed.cluster.get(), "bucket", records);
  // Workload E scans via the primary index (paper: primary GSI).
  auto st = bed.queries->Execute("CREATE PRIMARY INDEX ON `bucket` USING GSI");
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.status().ToString().c_str());
    return 1;
  }
  MustOk(bed.gsi->WaitUntilCaughtUp("bucket", "#primary", 120000),
         "gsi catch-up");

  PrintHeader("Figure 16: YCSB workload E range-query throughput vs threads",
              "threads | queries/sec | scan p50 (us) | scan p95 (us)");

  const std::string query =
      "SELECT meta().id AS id FROM `bucket` WHERE meta().id >= $1 LIMIT $2";
  for (size_t threads = 1; threads <= max_threads; threads *= 2) {
    ycsb::RunResult result;
    ycsb::Run(
        ycsb::WorkloadConfig::E(records), threads,
        std::max<uint64_t>(1, ops_per_point / threads),
        [&](const ycsb::Op& op) -> Status {
          if (op.type == ycsb::OpType::kInsert) {
            thread_local std::unique_ptr<client::SmartClient> client;
            if (!client) {
              client = std::make_unique<client::SmartClient>(
                  bed.cluster.get(), "bucket");
            }
            auto r = client->Upsert(op.key, op.value);
            return r.ok() ? Status::OK() : r.status();
          }
          n1ql::QueryOptions opts;
          opts.params = {json::Value::Str(op.key),
                         json::Value::Int(static_cast<int64_t>(
                             op.scan_length))};
          auto r = bed.queries->Execute(query, opts);
          return r.ok() ? Status::OK() : r.status();
        },
        &result);
    std::printf("%7zu | %11.0f | %13.1f | %13.1f\n", threads,
                result.throughput_ops_sec,
                static_cast<double>(result.scan_latency.Percentile(0.50)) /
                    1e3,
                static_cast<double>(result.scan_latency.Percentile(0.95)) /
                    1e3);
  }
  std::printf(
      "\nExpected shape (paper Fig. 16): throughput grows with threads until\n"
      "the host's cores saturate; absolute rate is far below Figure 15's KV\n"
      "ops (paper: ~5.4K qps vs ~178K ops/s at 128 threads — roughly 30x).\n");
  return 0;
}
