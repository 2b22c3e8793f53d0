// Network-partition scenarios: the classic SMR behaviours — a majority
// side keeps serving, a minority side stalls (but keeps rejecting!), and
// healing reconciles state — plus IDEM-specific behaviour of the
// rejection mechanism under partitions. All faults are expressed as
// declarative sim::FaultPlan schedules (see src/sim/fault_plan.hpp).
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

/// Arms `plan` and runs one tick so faults at t=0 fire before the test
/// starts sending (client sends happen synchronously at invoke()).
void arm(Cluster& cluster, sim::FaultPlan plan) {
  cluster.apply(plan);
  cluster.simulator().run_for(kMillisecond);
}

TEST(Partition, MajorityKeepsServing) {
  Cluster cluster(test_cluster_config(Protocol::Idem));
  // Replica 2 is cut off from its peers (but not from the client).
  arm(cluster, {sim::Fault::partition(0, {2}, {0, 1})});
  for (int i = 0; i < 5; ++i) {
    auto outcome = invoke_and_wait(cluster, 0, put_cmd("k", "v" + std::to_string(i)),
                                   10 * kSecond);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  }
  // The isolated replica made no progress.
  EXPECT_EQ(cluster.idem_replica(2)->next_execute().value, 0u);
}

TEST(Partition, MinorityLeaderCannotCommit) {
  Cluster cluster(test_cluster_config(Protocol::Idem));
  // Isolate the leader (replica 0) from both followers; the client can
  // still reach everyone. The followers view-change among themselves and
  // continue; the old leader must never commit alone.
  arm(cluster, {sim::Fault::partition(0, {0}, {1, 2})});
  auto outcome = invoke_and_wait(cluster, 0, put_cmd("k", "v"), 15 * kSecond);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  EXPECT_TRUE(cluster.idem_replica(1)->is_leader() || cluster.idem_replica(2)->is_leader());
  EXPECT_EQ(cluster.idem_replica(0)->next_execute().value, 0u);
}

TEST(Partition, HealedReplicaCatchesUp) {
  auto config = test_cluster_config(Protocol::Idem);
  config.reject_threshold = 2;  // small r_max: GC outruns the partition fast
  Cluster cluster(config);
  arm(cluster, {sim::Fault::partition(0, {2}, {0, 1})});  // sticky
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("k" + std::to_string(i), "v"))->kind,
              consensus::Outcome::Kind::Reply);
  }
  arm(cluster, {sim::Fault::heal(0)});  // fires at now (clamped)
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("post" + std::to_string(i), "v"))->kind,
              consensus::Outcome::Kind::Reply);
  }
  cluster.simulator().run_for(3 * kSecond);
  auto* healed = cluster.idem_replica(2);
  EXPECT_GT(healed->next_execute().value, 30u);
  EXPECT_EQ(healed->state_machine().snapshot(),
            cluster.idem_replica(0)->state_machine().snapshot());
}

TEST(Partition, IsolatedReplicasStillReject) {
  // The collaborative property under partitions: replicas cut off from
  // their peers still answer clients with rejections when saturated —
  // no coordination needed to say "not now".
  auto config = test_cluster_config(Protocol::Idem);
  config.reject_threshold = 0;  // always reject
  Cluster cluster(config);
  // Full replica-to-replica partition; clients reach everyone.
  arm(cluster, {
                   sim::Fault::partition(0, {0}, {1, 2}),
                   sim::Fault::partition(0, {1}, {2}),
               });

  auto outcome = invoke_and_wait(cluster, 0, put_cmd("k", "v"), 5 * kSecond);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Rejected);
  EXPECT_EQ(outcome->rejects_seen, 3u);  // all three, despite total isolation
  EXPECT_TRUE(outcome->definitive_failure);
  // And quickly: rejection needs one round trip, not agreement.
  EXPECT_LT(outcome->latency(), 2 * kMillisecond);
}

TEST(Partition, ClientPartitionedFromMajorityStillLearnsViaRetry) {
  Cluster cluster(test_cluster_config(Protocol::Idem));
  // The client initially reaches only replica 2; the request still
  // executes (replica 2 accepts and forwards), and once the client link
  // heals the retransmission collects the cached reply.
  arm(cluster, {
                   sim::Fault::partition_one_way(0, {sim::fault_endpoint_client(0)}, {0, 1}),
                   sim::Fault::partition_one_way(0, {0}, {sim::fault_endpoint_client(0)}),
               });

  std::optional<consensus::Outcome> outcome;
  cluster.client(0).invoke(put_cmd("k", "v"),
                           [&](const consensus::Outcome& o) { outcome = o; });
  cluster.simulator().run_for(kSecond);
  // The request executed cluster-wide even though the client saw nothing
  // yet (the leader's replies are blocked).
  EXPECT_GE(cluster.idem_replica(0)->next_execute().value, 1u);

  cluster.apply({sim::Fault::heal(0)});
  cluster.simulator().run_while(
      [&] { return !outcome.has_value() && cluster.simulator().now() < 10 * kSecond; });
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
}

TEST(Partition, PaxosMajoritySideElectsAndServes) {
  Cluster cluster(test_cluster_config(Protocol::Paxos));
  arm(cluster, {sim::Fault::partition(0, {0}, {1, 2})});
  auto outcome = invoke_and_wait(cluster, 0, put_cmd("k", "v"), 30 * kSecond);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  EXPECT_EQ(cluster.paxos_replica(0)->stats().executed, 0u);
}

TEST(Partition, FlappingLinkEventuallyConverges) {
  // The link to replica 2 flaps every 300 ms while traffic flows; when it
  // stabilizes, all replicas agree. One windowed partition per down-phase
  // replaces the old hand-scheduled partition/heal ping-pong.
  auto config = test_cluster_config(Protocol::Idem, /*clients=*/2, /*seed=*/9);
  Cluster cluster(config);
  test::ExecutionRecorder recorder(cluster);
  sim::FaultPlan flaps;
  for (int k = 0; k < 5; ++k) {
    flaps.add(sim::Fault::partition((2 * k + 1) * 300 * kMillisecond, {2}, {0, 1},
                                    300 * kMillisecond));
  }
  cluster.apply(flaps);
  for (int i = 0; i < 20; ++i) {
    for (std::size_t c = 0; c < 2; ++c) {
      auto outcome =
          invoke_and_wait(cluster, c, put_cmd("k" + std::to_string(i), "v"), 30 * kSecond);
      ASSERT_TRUE(outcome.has_value());
      ASSERT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
    }
  }
  cluster.apply({sim::Fault::heal(0)});
  cluster.simulator().run_for(3 * kSecond);
  recorder.expect_consistent();
}

}  // namespace
}  // namespace idem
