// Sharded real deployment: multiple real::RealCluster groups in one
// process, the load driver on ShardRouters over kernel TCP, a
// live split driven from the controller thread, and the aggregated admin
// surface (group-labelled /metrics, per-group /stats sections).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "check/linearizability.hpp"
#include "rpc/http_admin.hpp"
#include "shard/real_clients.hpp"
#include "shard/real_cluster.hpp"

namespace idem::shard {
namespace {

ShardedRealConfig small_config(std::size_t groups) {
  ShardedRealConfig config;
  config.groups = groups;
  config.base.n = 3;
  config.base.f = 1;
  config.base.seed = 11;
  return config;
}

harness::LoadConfig small_load(Duration span) {
  harness::LoadConfig load;
  load.measure = span;
  load.workload.record_count = 200;
  load.workload.value_size = 16;
  // Short backoff: test spans are fractions of a second.
  load.backoff_min = kMillisecond;
  load.backoff_max = 5 * kMillisecond;
  return load;
}

TEST(ShardedReal, TwoGroupsServeTheFullKeyspace) {
  ShardedRealCluster cluster(small_config(2));
  cluster.start();

  RealClients clients(clients_of(cluster, 4, 23));
  const harness::RunMetrics stats = clients.drive(small_load(300 * kMillisecond));
  EXPECT_GT(stats.replies, 20u);
  EXPECT_EQ(clients.router_stats().redirect_drops, 0u);
  // Fresh map: no redirects, both groups admitted traffic.
  EXPECT_EQ(clients.router_stats().redirects, 0u);
  EXPECT_GT(cluster.gate(0).stats().admitted, 0u);
  EXPECT_GT(cluster.gate(1).stats().admitted, 0u);
}

TEST(ShardedReal, StaleClientMapRedirectsAndRecovers) {
  ShardedRealCluster cluster(small_config(2));
  cluster.start();

  // Capture the epoch-1 map, then swap ownership of the lower half so
  // the routers start stale.
  RealClients clients(clients_of(cluster, 4, 23));
  const std::uint64_t mid = cluster.map().entries()[1].begin;
  cluster.publish(cluster.map().with_range_moved(0, mid, 1));

  const harness::RunMetrics stats = clients.drive(small_load(400 * kMillisecond));
  EXPECT_GT(stats.replies, 20u);
  EXPECT_GT(clients.router_stats().redirects, 0u);
  EXPECT_GT(clients.router_stats().map_refreshes, 0u);
  EXPECT_EQ(clients.router_stats().redirect_drops, 0u);

  // The redirecting group counted its WrongShard turn-aways.
  std::uint64_t wrong_shard = 0;
  for (std::size_t g = 0; g < cluster.groups(); ++g) {
    for (std::size_t i = 0; i < cluster.group(g).n(); ++i) {
      wrong_shard += cluster.group(g).replica_stats(i).rejects_for(RejectReason::WrongShard);
    }
  }
  EXPECT_GT(wrong_shard, 0u);
}

TEST(ShardedReal, LiveShardSplitIsLinearizable) {
  ShardedRealConfig config = small_config(2);
  ShardedRealCluster cluster(config);
  // Group 0 owns everything at first; group 1 idles until the split.
  cluster.publish(cluster.map().with_range_moved(0, 0, 0));
  cluster.start();

  const RealClientsConfig hosted = clients_of(cluster, 3, 23);
  harness::LoadConfig load = small_load(900 * kMillisecond);
  load.record_history = true;
  load.workload.record_count = 50;

  harness::RunMetrics stats;
  RouterStats router;
  std::thread loader([&] {
    RealClients clients(hosted);
    stats = clients.drive(load);
    router = clients.router_stats();
  });
  // Let the load establish itself, then migrate the upper half of the
  // hash space to group 1 while operations are in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  const bool split = cluster.run_split(1ull << 63, 0, 0, 1, 5 * kSecond);
  loader.join();

  ASSERT_TRUE(split);
  EXPECT_EQ(cluster.map().epoch(), 3u);
  EXPECT_GT(stats.replies, 20u);
  // Post-flip traffic reached the new owner.
  EXPECT_GT(cluster.gate(1).stats().admitted, 0u);
  EXPECT_GT(router.redirects, 0u);

  const auto result = check::check_linearizable(stats.history, check::KvModel{});
  EXPECT_TRUE(result.linearizable) << result.error;
}

TEST(ShardedReal, AggregatedAdminServesGroupLabelledTelemetry) {
  ShardedRealConfig config = small_config(2);
  config.admin = true;
  ShardedRealCluster cluster(config);
  cluster.start();
  ASSERT_NE(cluster.admin_port(), 0);

  (void)RealClients(clients_of(cluster, 2, 23)).drive(small_load(200 * kMillisecond));

  const std::string metrics =
      rpc::http_exchange(cluster.admin_port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("group=\"0\""), std::string::npos);
  EXPECT_NE(metrics.find("group=\"1\""), std::string::npos);
  EXPECT_NE(metrics.find("idem_replies"), std::string::npos);

  const std::string stats =
      rpc::http_exchange(cluster.admin_port(), "GET /stats HTTP/1.0\r\n\r\n");
  EXPECT_NE(stats.find("\"per_group\""), std::string::npos);
  EXPECT_NE(stats.find("\"map_epoch\":1"), std::string::npos);
  EXPECT_NE(stats.find("\"admitted\""), std::string::npos);
}

}  // namespace
}  // namespace idem::shard
