// Tests for the declarative fault-plan engine: JSON round-trips,
// windowed auto-revert, counted (composing) link blocks, one-way
// partitions, crash/recover, leader-relative targets, and the
// delay-spike / drop-burst knobs.
#include <gtest/gtest.h>

#include "sim/fault_plan.hpp"
#include "test_util.hpp"

namespace idem {
namespace {

using harness::Cluster;
using harness::Protocol;
using test::invoke_and_wait;
using test::put_cmd;
using test::test_cluster_config;

TEST(FaultPlan, JsonRoundTripAllKinds) {
  sim::FaultPlan plan{
      sim::Fault::crash(100 * kMillisecond, 1),
      sim::Fault::recover(600 * kMillisecond),
      sim::Fault::crash(800 * kMillisecond, sim::Fault::kLeader),
      sim::Fault::partition(kSecond, {2}, {0, 1, sim::fault_endpoint_client(0)},
                            400 * kMillisecond),
      sim::Fault::partition_one_way(2 * kSecond, {0}, {1, 2}),
      sim::Fault::heal(3 * kSecond),
      sim::Fault::delay_spike(4 * kSecond, 7.5, 250 * kMillisecond),
      sim::Fault::drop_burst(5 * kSecond, 0.33, 125 * kMillisecond),
  };
  sim::FaultPlan round = sim::FaultPlan::parse(plan.to_json_string());
  EXPECT_EQ(round, plan);
  // Canonical serialization: dump is stable across a round trip.
  EXPECT_EQ(round.to_json_string(), plan.to_json_string());
}

TEST(FaultPlan, EndTimeIncludesRevertWindows) {
  sim::FaultPlan plan{
      sim::Fault::crash(2 * kSecond, 0),
      sim::Fault::partition(kSecond, {0}, {1}, 1500 * kMillisecond),
  };
  EXPECT_EQ(plan.end_time(), 2500 * kMillisecond);
}

// The regression the one-way fault exists for: the leader can *send* but
// not *receive* (asymmetric link failure). Collaborative rejection must
// still notify the client — the followers reject on their own; no
// coordination through the leader is needed to say "not now".
TEST(FaultPlan, OneWayLeaderReceiveCutStillRejectsClient) {
  auto config = test_cluster_config(Protocol::Idem);
  config.reject_threshold = 0;  // saturated: every request is rejected
  Cluster cluster(config);
  // Everyone -> leader is cut; leader -> everyone still delivers.
  cluster.apply({sim::Fault::partition_one_way(
      0, {1, 2, sim::fault_endpoint_client(0)}, {0})});
  cluster.simulator().run_for(kMillisecond);  // let the fault arm

  auto outcome = invoke_and_wait(cluster, 0, put_cmd("k", "v"), 5 * kSecond);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Rejected);
  // Only the two followers could answer: ambivalence, not definitive
  // failure (the leader might have accepted for all the client knows).
  EXPECT_EQ(outcome->rejects_seen, 2u);
  EXPECT_FALSE(outcome->definitive_failure);
}

TEST(FaultPlan, OneWayIsAsymmetric) {
  // The same endpoint sets with the direction flipped behave differently —
  // that's the whole point of PartitionOneWay vs Partition.
  const std::vector<std::uint32_t> client{sim::fault_endpoint_client(0)};
  const std::vector<std::uint32_t> replicas{0, 1, 2};

  // Request direction cut: nothing ever reaches the replicas.
  {
    Cluster cluster(test_cluster_config(Protocol::Idem));
    cluster.apply({sim::Fault::partition_one_way(0, client, replicas)});
    cluster.simulator().run_for(kMillisecond);
    std::optional<consensus::Outcome> outcome;
    cluster.client(0).invoke(put_cmd("k", "v"),
                             [&](const consensus::Outcome& o) { outcome = o; });
    cluster.simulator().run_for(kSecond);
    EXPECT_FALSE(outcome.has_value());
    EXPECT_EQ(cluster.idem_replica(0)->next_execute().value, 0u);
  }
  // Reply direction cut: the request executes, only the replies are lost.
  {
    Cluster cluster(test_cluster_config(Protocol::Idem));
    cluster.apply({sim::Fault::partition_one_way(0, replicas, client)});
    cluster.simulator().run_for(kMillisecond);
    std::optional<consensus::Outcome> outcome;
    cluster.client(0).invoke(put_cmd("k", "v"),
                             [&](const consensus::Outcome& o) { outcome = o; });
    cluster.simulator().run_for(kSecond);
    EXPECT_FALSE(outcome.has_value());
    EXPECT_GE(cluster.idem_replica(0)->next_execute().value, 1u);
  }
}

TEST(FaultPlan, WindowedPartitionAutoHeals) {
  // Same scenario as Partition.HealedReplicaCatchesUp, but the heal comes
  // from the window expiring rather than an explicit heal() call.
  auto config = test_cluster_config(Protocol::Idem);
  config.reject_threshold = 2;
  // Long isolation must not trigger a view change on the cut replica; this
  // test is about the window mechanics, not failover.
  config.idem.viewchange_timeout = 30 * kSecond;
  Cluster cluster(config);
  cluster.apply({sim::Fault::partition(0, {2}, {0, 1}, 600 * kMillisecond)});
  cluster.simulator().run_for(kMillisecond);
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("k" + std::to_string(i), "v"))->kind,
              consensus::Outcome::Kind::Reply);
  }
  // Still inside the window: the isolated replica made no progress.
  ASSERT_LT(cluster.simulator().now(), 600 * kMillisecond);
  EXPECT_EQ(cluster.idem_replica(2)->next_execute().value, 0u);
  // Past the window, it catches up without any explicit heal.
  cluster.simulator().run_until(700 * kMillisecond);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("post" + std::to_string(i), "v"))->kind,
              consensus::Outcome::Kind::Reply);
  }
  cluster.simulator().run_for(3 * kSecond);
  EXPECT_GT(cluster.idem_replica(2)->next_execute().value, 30u);
  EXPECT_EQ(cluster.idem_replica(2)->state_machine().snapshot(),
            cluster.idem_replica(0)->state_machine().snapshot());
}

TEST(FaultPlan, OverlappingWindowsCompose) {
  // Two overlapping windowed partitions cut the same links; the link must
  // stay cut until the *last* window reverts (counted blocks), not reopen
  // when the first one does.
  auto config = test_cluster_config(Protocol::Idem);
  config.reject_threshold = 2;
  config.idem.viewchange_timeout = 30 * kSecond;
  Cluster cluster(config);
  cluster.apply({
      sim::Fault::partition(100 * kMillisecond, {2}, {0, 1}, 500 * kMillisecond),
      sim::Fault::partition(300 * kMillisecond, {2}, {0, 1}, 1600 * kMillisecond),
  });
  // Before the first window: replica 2 participates normally.
  ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("k", "v"))->kind,
            consensus::Outcome::Kind::Reply);
  ASSERT_LT(cluster.simulator().now(), 100 * kMillisecond);
  cluster.simulator().run_for(50 * kMillisecond);
  const auto baseline = cluster.idem_replica(2)->next_execute().value;
  EXPECT_GE(baseline, 1u);
  // t in (600ms, 1.9s): first window over, second still active — enough
  // traffic to move the window past replica 2, which must stay frozen.
  cluster.simulator().run_until(800 * kMillisecond);
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("k" + std::to_string(i), "v"))->kind,
              consensus::Outcome::Kind::Reply);
  }
  ASSERT_LT(cluster.simulator().now(), 1900 * kMillisecond);
  EXPECT_EQ(cluster.idem_replica(2)->next_execute().value, baseline)
      << "link reopened too early";
  // After 1.9s both windows are gone and replica 2 catches up.
  cluster.simulator().run_until(2 * kSecond);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("post" + std::to_string(i), "v"))->kind,
              consensus::Outcome::Kind::Reply);
  }
  cluster.simulator().run_for(3 * kSecond);
  EXPECT_GT(cluster.idem_replica(2)->next_execute().value, 30u);
}

TEST(FaultPlan, CrashAndRecoverCatchesUp) {
  Cluster cluster(test_cluster_config(Protocol::Idem));
  cluster.apply({
      sim::Fault::crash(100 * kMillisecond, 2),
      sim::Fault::recover(kSecond),  // defaults to the last crashed replica
  });
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("k" + std::to_string(i), "v"))->kind,
              consensus::Outcome::Kind::Reply);
  }
  cluster.simulator().run_until(kSecond);
  ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("post", "v"))->kind,
            consensus::Outcome::Kind::Reply);
  cluster.simulator().run_for(5 * kSecond);
  EXPECT_GT(cluster.idem_replica(2)->next_execute().value, 0u);
  EXPECT_EQ(cluster.idem_replica(2)->state_machine().snapshot(),
            cluster.idem_replica(0)->state_machine().snapshot());
}

TEST(FaultPlan, LeaderSentinelResolvesAtFireTime) {
  Cluster cluster(test_cluster_config(Protocol::Paxos));
  cluster.apply({sim::Fault::crash(100 * kMillisecond, sim::Fault::kLeader)});
  cluster.simulator().run_until(200 * kMillisecond);  // crash has fired
  auto outcome = invoke_and_wait(cluster, 0, put_cmd("k", "v"), 30 * kSecond);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  // Replica 0 (the leader at fire time) was the victim: leadership moved
  // to one of the survivors.
  EXPECT_TRUE(cluster.paxos_replica(1)->is_leader() ||
              cluster.paxos_replica(2)->is_leader());
}

TEST(FaultPlan, DelaySpikeSlowsAndReverts) {
  Cluster cluster(test_cluster_config(Protocol::Idem));
  auto baseline = invoke_and_wait(cluster, 0, put_cmd("k", "v"));
  ASSERT_EQ(baseline->kind, consensus::Outcome::Kind::Reply);

  Time start = cluster.simulator().now();
  cluster.apply({sim::Fault::delay_spike(start, 20.0, 2 * kSecond)});
  auto spiked = invoke_and_wait(cluster, 0, put_cmd("k", "v2"));
  ASSERT_EQ(spiked->kind, consensus::Outcome::Kind::Reply);
  EXPECT_GT(spiked->latency(), 3 * baseline->latency());

  cluster.simulator().run_until(start + 2 * kSecond + kMillisecond);
  EXPECT_DOUBLE_EQ(cluster.network().latency_factor(), 1.0);
  auto after = invoke_and_wait(cluster, 0, put_cmd("k", "v3"));
  EXPECT_LT(after->latency(), 2 * baseline->latency());
}

TEST(FaultPlan, DropBurstRevertsExactly) {
  auto config = test_cluster_config(Protocol::Idem);
  config.network.drop_probability = 0.05;
  Cluster cluster(config);
  // A burst that clamps at 1.0 must still revert to the 0.05 baseline,
  // not to 0.05 + 0.98 - 0.98's unclamped arithmetic.
  cluster.apply({sim::Fault::drop_burst(100 * kMillisecond, 0.98, 300 * kMillisecond)});
  cluster.simulator().run_until(200 * kMillisecond);
  EXPECT_DOUBLE_EQ(cluster.network().config().drop_probability, 1.0);
  cluster.simulator().run_until(500 * kMillisecond);
  EXPECT_NEAR(cluster.network().config().drop_probability, 0.05, 1e-9);
  auto outcome = invoke_and_wait(cluster, 0, put_cmd("k", "v"), 30 * kSecond);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
}

}  // namespace
}  // namespace idem
