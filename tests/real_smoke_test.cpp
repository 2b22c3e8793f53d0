// Time-boxed end-to-end smoke of the real deployment: a 3-replica
// loopback cluster built from the unmodified IdemReplica, driven by the
// unmodified IdemClient over kernel TCP, serving a few hundred YCSB
// operations. Checks well-formed replies, engaged rejections under a tiny
// reject threshold, coherent cross-thread traces, and leak-free shutdown
// (the suite also runs under ASan and TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "consensus/addresses.hpp"
#include "real/cluster.hpp"
#include "shard/real_clients.hpp"

namespace idem {
namespace {

using shard::clients_of;

TEST(RealSmoke, ServesYcsbOverLoopbackTcp) {
  real::RealClusterConfig config;
  config.n = 3;
  config.f = 1;
  config.reject_threshold = 50;
  config.seed = 7;
  config.expected_clients = 4;
  config.preload = true;
  config.workload.record_count = 200;  // keep preload fast
  real::RealCluster cluster(config);
  cluster.start();

  const std::size_t clients = 4;
  harness::LoadConfig load;
  load.warmup = 100 * kMillisecond;
  load.measure = 600 * kMillisecond;
  load.workload = config.workload;
  harness::RunMetrics stats = shard::RealClients(clients_of(cluster, clients, 7)).drive(load);

  // A few hundred operations completed, every reply decoded cleanly.
  EXPECT_GT(stats.replies, 200u);
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  // Nothing should be rejected this far below the threshold.
  EXPECT_EQ(stats.rejects, 0u);
  // Ops issued in the warmup may conclude inside the measure window, so
  // replies can exceed issued by at most one in-flight op per client.
  EXPECT_GE(stats.issued + clients, stats.replies);

  // The replicas agree on what happened: each accepted and executed the
  // operations (executed counts may differ only by in-flight requests).
  // A follower may still be applying the last commits when the load
  // stops, so sample until every replica caught up, for at most 5 s.
  std::vector<std::uint64_t> executed(cluster.n());
  std::uint64_t max_executed = 0, min_executed = 0;
  for (int attempt = 0; attempt < 500; ++attempt) {
    if (attempt > 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    for (std::size_t i = 0; i < cluster.n(); ++i) {
      executed[i] = cluster.replica_stats(i).executed;
    }
    max_executed = *std::max_element(executed.begin(), executed.end());
    min_executed = *std::min_element(executed.begin(), executed.end());
    if (min_executed >= stats.replies && max_executed - min_executed <= 64) break;
  }
  for (std::size_t i = 0; i < cluster.n(); ++i) {
    EXPECT_GE(executed[i], stats.replies) << "replica " << i;
  }
  EXPECT_LE(max_executed - min_executed, 64u);

  // No transport-level decode errors on a healthy loopback cluster.
  for (std::size_t i = 0; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.transport_stats(i).decode_errors, 0u) << "replica " << i;
  }
  cluster.shutdown();
}

TEST(RealSmoke, RejectionsEngageUnderOverload) {
  real::RealClusterConfig config;
  config.n = 3;
  config.f = 1;
  config.reject_threshold = 1;  // tiny r: overload immediately
  config.seed = 13;
  config.expected_clients = 16;
  real::RealCluster cluster(config);
  cluster.start();

  harness::LoadConfig load;
  load.measure = 600 * kMillisecond;
  harness::RunMetrics stats = shard::RealClients(clients_of(cluster, 16, 13)).drive(load);

  // Proactive rejection engaged, and rejected operations still concluded
  // (fast negative acknowledgement, not a timeout).
  EXPECT_GT(stats.rejects, 0u);
  EXPECT_GT(stats.replies, 0u);
  std::uint64_t rejected_total = 0;
  for (std::size_t i = 0; i < cluster.n(); ++i) {
    rejected_total += cluster.replica_stats(i).rejected;
  }
  EXPECT_GT(rejected_total, 0u);
  cluster.shutdown();
}

TEST(RealSmoke, PerThreadTracesMergeIntoOneTimeline) {
  real::RealClusterConfig config;
  config.n = 3;
  config.f = 1;
  config.seed = 17;
  config.trace = true;
  real::RealCluster cluster(config);
  cluster.start();

  obs::TraceRecorder client_trace(1u << 16);
  shard::RealClientsConfig clients = clients_of(cluster, 2, 17);
  clients.client.trace = &client_trace;
  harness::LoadConfig load;
  load.measure = 300 * kMillisecond;
  harness::RunMetrics stats = shard::RealClients(clients).drive(load);
  ASSERT_GT(stats.replies, 0u);
  cluster.shutdown();

  // Merge the three replica rings with the client-side ring: one timeline,
  // monotone in wall-clock time, containing both sides of the lifecycle.
  auto parts = cluster.trace_snapshots();
  parts.push_back(client_trace.snapshot());
  auto merged = obs::merge_trace_snapshots(std::move(parts));
  ASSERT_FALSE(merged.empty());
  bool saw_client_event = false, saw_replica_event = false;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(merged[i].at, merged[i - 1].at);
    }
    if (merged[i].node >= consensus::kClientAddressBase) saw_client_event = true;
    if (merged[i].node < consensus::kClientAddressBase) saw_replica_event = true;
  }
  EXPECT_TRUE(saw_client_event);
  EXPECT_TRUE(saw_replica_event);
}

}  // namespace
}  // namespace idem
