// Every thread src/ spawns names itself in the OS (common/thread_name.h), so
// /proc/self/task/*/comm, `top -H` and gdb attribute CPU and stacks to a
// role. One process hosts every spawn site at once: a cluster with wire
// listeners, a health monitor, one connected WireClient and a QueryService
// (which owns the thread pool); the test then reads the names back from
// /proc.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client/wire_client.h"
#include "cluster/cluster.h"
#include "cluster/health_monitor.h"
#include "gsi/index_service.h"
#include "n1ql/query_service.h"
#include "views/view_engine.h"

namespace couchkv {
namespace {

std::set<std::string> ThreadNames() {
  std::set<std::string> names;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    // A thread can exit between the listing and the read; skip it.
    if (std::getline(comm, name)) names.insert(name);
  }
  return names;
}

TEST(ThreadNameTest, EverySpawnSiteNamesItsThread) {
  cluster::Cluster cluster;
  for (int i = 0; i < 2; ++i) cluster.AddNode();
  cluster::BucketConfig cfg;
  cfg.name = "default";
  cfg.num_replicas = 1;
  ASSERT_TRUE(cluster.CreateBucket(cfg).ok());
  ASSERT_TRUE(cluster.StartWireServers("default").ok());

  cluster::HealthMonitorOptions hm_opts;
  hm_opts.auto_failover_enabled = false;
  cluster::HealthMonitor monitor(&cluster, hm_opts);
  monitor.Start();

  auto gsi = std::make_shared<gsi::IndexService>(&cluster);
  auto views = std::make_shared<views::ViewEngine>(&cluster);
  n1ql::QueryService query(&cluster, gsi, views);

  std::vector<uint16_t> ports;
  for (cluster::NodeId id : cluster.node_ids()) {
    ports.push_back(cluster.wire_port(id));
  }
  client::WireClient client(ports, "default");
  ASSERT_TRUE(client.Upsert("k", "v").ok());  // holds a connection open

  std::set<std::string> missing = {
      "dcp.producer", "storage.flusher", "net.accept",
      "net.conn",     "cluster.health",  "pool.worker",
  };
  // Each thread names itself as its first statement, so the names can
  // trail the spawn by a scheduling quantum; poll until a deadline.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!missing.empty() && std::chrono::steady_clock::now() < deadline) {
    const std::set<std::string> seen = ThreadNames();
    std::erase_if(missing,
                  [&](const std::string& n) { return seen.contains(n); });
    if (!missing.empty()) std::this_thread::yield();
  }
  for (const std::string& name : missing) {
    ADD_FAILURE() << "no thread named " << name;
  }
  monitor.Stop();
}

}  // namespace
}  // namespace couchkv
