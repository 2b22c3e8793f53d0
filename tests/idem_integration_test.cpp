// Integration tests for the IDEM protocol: agreement, collaborative
// overload prevention, forwarding/fetch, implicit garbage collection,
// state transfer, view changes, and the client-side semantics of
// Section 5.3.
#include <gtest/gtest.h>

#include <memory>

#include "test_util.hpp"

namespace idem {
namespace {

using harness::Cluster;
using harness::Protocol;
using test::get_cmd;
using test::invoke_and_wait;
using test::put_cmd;
using test::test_cluster_config;

TEST(IdemIntegration, BasicPutGet) {
  Cluster cluster(test_cluster_config(Protocol::Idem));
  auto put = invoke_and_wait(cluster, 0, put_cmd("k", "v"));
  ASSERT_TRUE(put.has_value());
  EXPECT_EQ(put->kind, consensus::Outcome::Kind::Reply);

  auto get = invoke_and_wait(cluster, 0, get_cmd("k"));
  ASSERT_TRUE(get.has_value());
  ASSERT_EQ(get->kind, consensus::Outcome::Kind::Reply);
  auto result = app::KvResult::decode(get->result);
  ASSERT_EQ(result.values.size(), 1u);
  EXPECT_EQ(result.values[0], "v");
}

TEST(IdemIntegration, AllReplicasExecuteIdentically) {
  Cluster cluster(test_cluster_config(Protocol::Idem, /*clients=*/3));
  test::ExecutionRecorder recorder(cluster);
  for (int round = 0; round < 10; ++round) {
    for (std::size_t c = 0; c < 3; ++c) {
      auto outcome = invoke_and_wait(
          cluster, c, put_cmd("key" + std::to_string(c), "v" + std::to_string(round)));
      ASSERT_TRUE(outcome.has_value());
      ASSERT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
    }
  }
  cluster.simulator().run_for(kSecond);  // let followers finish
  recorder.expect_consistent();
  ASSERT_EQ(recorder.log(0).size(), 30u);
  EXPECT_EQ(recorder.log(0).size(), recorder.log(1).size());
  EXPECT_EQ(recorder.log(0).size(), recorder.log(2).size());

  // All replicas hold the same application state.
  auto snapshot0 = cluster.idem_replica(0)->state_machine().snapshot();
  EXPECT_EQ(snapshot0, cluster.idem_replica(1)->state_machine().snapshot());
  EXPECT_EQ(snapshot0, cluster.idem_replica(2)->state_machine().snapshot());
}

TEST(IdemIntegration, ReadYourOwnWrites) {
  Cluster cluster(test_cluster_config(Protocol::Idem));
  for (int i = 0; i < 5; ++i) {
    std::string value = "v" + std::to_string(i);
    ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("x", value))->kind,
              consensus::Outcome::Kind::Reply);
    auto get = invoke_and_wait(cluster, 0, get_cmd("x"));
    ASSERT_EQ(get->kind, consensus::Outcome::Kind::Reply);
    EXPECT_EQ(app::KvResult::decode(get->result).values.at(0), value);
  }
}

TEST(IdemIntegration, ExactlyOnceUnderMessageLoss) {
  auto config = test_cluster_config(Protocol::Idem, /*clients=*/2, /*seed=*/3);
  config.network.drop_probability = 0.2;
  Cluster cluster(config);
  test::ExecutionRecorder recorder(cluster);

  for (int i = 0; i < 10; ++i) {
    for (std::size_t c = 0; c < 2; ++c) {
      auto outcome = invoke_and_wait(cluster, c, put_cmd("k", "v"), 60 * kSecond);
      ASSERT_TRUE(outcome.has_value()) << "operation stalled under loss";
      ASSERT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
    }
  }
  cluster.network().set_drop_probability(0.0);
  cluster.simulator().run_for(5 * kSecond);
  recorder.expect_consistent();
  // Despite retransmissions, every operation executed exactly once.
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::uint64_t onr = 1; onr <= 10; ++onr) {
      RequestId id{ClientId{c}, OpNum{onr}};
      EXPECT_EQ(recorder.count_executions(0, id), 1u) << to_string(id);
    }
  }
}

TEST(IdemIntegration, RejectsWhenSaturated) {
  auto config = test_cluster_config(Protocol::Idem, /*clients=*/1);
  config.reject_threshold = 0;  // every request fails the acceptance test
  Cluster cluster(config);
  auto outcome = invoke_and_wait(cluster, 0, put_cmd("k", "v"), 5 * kSecond);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Rejected);
  // All three replicas rejected: the client reached the *failure* state.
  EXPECT_TRUE(outcome->definitive_failure);
  EXPECT_EQ(outcome->rejects_seen, 3u);
}

TEST(IdemIntegration, PessimisticClientAbortsAtNMinusF) {
  auto config = test_cluster_config(Protocol::Idem, /*clients=*/1);
  config.reject_threshold = 0;
  config.idem_client.strategy = core::IdemClientConfig::Strategy::Pessimistic;
  Cluster cluster(config);
  cluster.crash_replica(2);  // only n-f = 2 replicas can answer
  auto outcome = invoke_and_wait(cluster, 0, put_cmd("k", "v"), 5 * kSecond);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Rejected);
  EXPECT_EQ(outcome->rejects_seen, 2u);  // ambivalence state, aborted at once
  EXPECT_FALSE(outcome->definitive_failure);
}

TEST(IdemIntegration, RejectLatencyIsLow) {
  auto config = test_cluster_config(Protocol::Idem, /*clients=*/1);
  config.reject_threshold = 0;
  config.idem_client.strategy = core::IdemClientConfig::Strategy::Pessimistic;
  Cluster cluster(config);
  auto outcome = invoke_and_wait(cluster, 0, put_cmd("k", "v"), 5 * kSecond);
  ASSERT_TRUE(outcome.has_value());
  // A rejection takes one round trip: well under 2 ms in this network.
  EXPECT_LT(outcome->latency(), 2 * kMillisecond);
}

// Property 5.1 / Theorem 6.2: a request accepted by at least one correct
// replica is executed by all correct replicas — even if every other
// replica rejected it. The forwarding mechanism makes this happen.
TEST(IdemIntegration, SingleAcceptorStillExecutes) {
  sim::Simulator sim(11);
  sim::SimNetwork net(sim, {});

  core::IdemConfig rc;
  rc.n = 3;
  rc.f = 1;
  rc.reject_threshold = 50;
  rc.viewchange_timeout = 500 * kMillisecond;

  struct AlwaysReject final : core::AcceptanceTest {
    core::AcceptanceVerdict evaluate(RequestId, std::span<const std::byte>,
                                     const core::AcceptanceContext&) override {
      return core::AcceptanceVerdict::no();
    }
    const char* name() const override { return "always-reject"; }
  };

  std::vector<std::unique_ptr<core::IdemReplica>> replicas;
  for (std::uint32_t i = 0; i < 3; ++i) {
    std::unique_ptr<core::AcceptanceTest> test;
    if (i == 0) {
      test = std::make_unique<core::NeverReject>();
    } else {
      test = std::make_unique<AlwaysReject>();
    }
    replicas.push_back(std::make_unique<core::IdemReplica>(
        sim, net, ReplicaId{i}, rc, std::make_unique<app::KvStore>(), std::move(test)));
  }

  core::IdemClientConfig cc;
  cc.optimistic_wait = 200 * kMillisecond;  // wait out the forward timeout
  core::IdemClient client(sim, net, ClientId{0}, cc);

  std::optional<consensus::Outcome> outcome;
  client.invoke(test::put_cmd("k", "v"), [&](const consensus::Outcome& o) { outcome = o; });
  sim.run_until(5 * kSecond);

  ASSERT_TRUE(outcome.has_value());
  // Replica 0 accepted; forwarding made the others adopt the request, so
  // the client got a reply despite two rejections.
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  for (const auto& replica : replicas) {
    EXPECT_EQ(replica->last_executed(ClientId{0}), OpNum{1})
        << "replica " << replica->replica_id().value;
  }
  EXPECT_GT(replicas[0]->stats().forwards_sent, 0u);
  EXPECT_EQ(replicas[1]->stats().forward_accepted, 1u);
}

TEST(IdemIntegration, FetchRecoversMissingRequestBody) {
  auto config = test_cluster_config(Protocol::Idem, /*clients=*/1);
  Cluster cluster(config);
  // Replica 2 never hears from the client directly...
  cluster.network().block_link(consensus::client_address(ClientId{0}),
                               consensus::replica_address(ReplicaId{2}));
  auto outcome = invoke_and_wait(cluster, 0, put_cmd("k", "v"), 5 * kSecond);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);

  // ...but still executes the request after fetching or receiving the
  // forwarded body.
  cluster.simulator().run_for(kSecond);
  EXPECT_EQ(cluster.idem_replica(2)->last_executed(ClientId{0}), OpNum{1});
  EXPECT_EQ(cluster.idem_replica(2)->stats().rejected, 0u);
}

TEST(IdemIntegration, ImplicitGarbageCollectionAdvancesWindow) {
  auto config = test_cluster_config(Protocol::Idem, /*clients=*/1);
  config.reject_threshold = 2;  // r_max = 6: windows advance quickly
  Cluster cluster(config);
  for (int i = 0; i < 40; ++i) {
    auto outcome = invoke_and_wait(cluster, 0, put_cmd("k", "v" + std::to_string(i)));
    ASSERT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  }
  cluster.simulator().run_for(kSecond);
  // 40 instances were agreed; the window start must have moved past most
  // of them purely through the implicit mechanism (no progress messages).
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(cluster.idem_replica(i)->window_start().value, 25u) << "replica " << i;
    EXPECT_GE(cluster.idem_replica(i)->next_execute().value, 40u) << "replica " << i;
  }
}

TEST(IdemIntegration, LaggingReplicaCatchesUpViaCheckpoint) {
  auto config = test_cluster_config(Protocol::Idem, /*clients=*/1);
  config.reject_threshold = 2;
  Cluster cluster(config);

  // Cut replica 2 off completely.
  std::vector<sim::NodeId> others = {consensus::replica_address(ReplicaId{0}),
                                     consensus::replica_address(ReplicaId{1}),
                                     consensus::client_address(ClientId{0})};
  cluster.network().partition({consensus::replica_address(ReplicaId{2})}, others);

  for (int i = 0; i < 40; ++i) {
    auto outcome = invoke_and_wait(cluster, 0, put_cmd("k" + std::to_string(i), "v"));
    ASSERT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  }
  EXPECT_EQ(cluster.idem_replica(2)->next_execute().value, 0u);

  cluster.network().heal();
  // New traffic makes replica 2 notice it is behind and request state.
  for (int i = 0; i < 10; ++i) {
    auto outcome = invoke_and_wait(cluster, 0, put_cmd("fresh" + std::to_string(i), "v"));
    ASSERT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  }
  cluster.simulator().run_for(2 * kSecond);

  auto* lagging = cluster.idem_replica(2);
  EXPECT_GE(lagging->stats().state_transfers, 1u);
  EXPECT_GT(lagging->next_execute().value, 35u);
  // After catch-up the state machine matches the up-to-date replicas.
  auto* store = dynamic_cast<app::KvStore*>(&lagging->state_machine());
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(store->get("k39").has_value());
}

TEST(IdemIntegration, LeaderCrashTriggersViewChange) {
  auto config = test_cluster_config(Protocol::Idem, /*clients=*/1);
  Cluster cluster(config);
  ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("before", "crash"))->kind,
            consensus::Outcome::Kind::Reply);

  cluster.crash_replica(0);  // initial leader of view 0

  auto outcome = invoke_and_wait(cluster, 0, put_cmd("after", "crash"), 10 * kSecond);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  EXPECT_TRUE(cluster.idem_replica(1)->is_leader());
  EXPECT_GE(cluster.idem_replica(1)->view().value, 1u);

  // Both survivors have the new value.
  cluster.simulator().run_for(kSecond);
  for (int i = 1; i <= 2; ++i) {
    auto* store = dynamic_cast<app::KvStore*>(&cluster.idem_replica(i)->state_machine());
    EXPECT_EQ(store->get("after"), "crash") << "replica " << i;
  }
}

TEST(IdemIntegration, RequestOutstandingAcrossLeaderCrashCompletes) {
  auto config = test_cluster_config(Protocol::Idem, /*clients=*/1);
  Cluster cluster(config);
  // Crash the leader the moment the request arrives there, before it can
  // complete the agreement.
  std::optional<consensus::Outcome> outcome;
  cluster.client(0).invoke(put_cmd("k", "v"),
                           [&](const consensus::Outcome& o) { outcome = o; });
  cluster.apply({sim::Fault::crash(cluster.simulator().now() + 60 * kMicrosecond, 0)});
  cluster.simulator().run_while(
      [&] { return !outcome.has_value() && cluster.simulator().now() < 30 * kSecond; });

  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
}

TEST(IdemIntegration, FollowerCrashDoesNotDisturbService) {
  auto config = test_cluster_config(Protocol::Idem, /*clients=*/1);
  Cluster cluster(config);
  cluster.crash_replica(2);
  for (int i = 0; i < 10; ++i) {
    auto outcome = invoke_and_wait(cluster, 0, put_cmd("k", "v" + std::to_string(i)));
    ASSERT_TRUE(outcome.has_value());
    ASSERT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
    // No view change needed: replica 0 stays leader.
    EXPECT_EQ(cluster.idem_replica(0)->view().value, 0u);
  }
}

TEST(IdemIntegration, SuccessiveLeaderCrashes) {
  auto config = test_cluster_config(Protocol::Idem, /*clients=*/1);
  config.n = 5;
  config.f = 2;
  config.idem_client.n = 5;  // overridden by the cluster anyway
  Cluster cluster(config);
  ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("a", "1"))->kind,
            consensus::Outcome::Kind::Reply);
  cluster.crash_replica(0);
  ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("b", "2"), 10 * kSecond)->kind,
            consensus::Outcome::Kind::Reply);
  cluster.crash_replica(1);
  auto outcome = invoke_and_wait(cluster, 0, put_cmd("c", "3"), 10 * kSecond);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  // With f = 2 crashes tolerated, replica 2 leads view 2.
  EXPECT_TRUE(cluster.idem_replica(2)->is_leader());
}

TEST(IdemIntegration, ConsistencyAcrossViewChange) {
  auto config = test_cluster_config(Protocol::Idem, /*clients=*/2);
  Cluster cluster(config);
  test::ExecutionRecorder recorder(cluster);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(invoke_and_wait(cluster, i % 2, put_cmd("k" + std::to_string(i), "v"))->kind,
              consensus::Outcome::Kind::Reply);
  }
  cluster.crash_replica(0);
  for (int i = 5; i < 10; ++i) {
    ASSERT_EQ(
        invoke_and_wait(cluster, i % 2, put_cmd("k" + std::to_string(i), "v"), 10 * kSecond)
            ->kind,
        consensus::Outcome::Kind::Reply);
  }
  cluster.simulator().run_for(kSecond);
  recorder.expect_consistent();
  // The survivors executed everything.
  auto s1 = cluster.idem_replica(1)->state_machine().snapshot();
  auto s2 = cluster.idem_replica(2)->state_machine().snapshot();
  EXPECT_EQ(s1, s2);
}

TEST(IdemIntegration, NoViewChangeWhenIdle) {
  auto config = test_cluster_config(Protocol::Idem, /*clients=*/1);
  Cluster cluster(config);
  ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("k", "v"))->kind,
            consensus::Outcome::Kind::Reply);
  // Idle for many multiples of the view-change timeout: the progress timer
  // must not fire without outstanding work.
  cluster.simulator().run_for(10 * kSecond);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.idem_replica(i)->view().value, 0u) << "replica " << i;
    EXPECT_EQ(cluster.idem_replica(i)->stats().view_changes, 0u) << "replica " << i;
  }
}

TEST(IdemIntegration, OptimisticClientGetsLateReply) {
  // One replica rejects, two accept: the client may see one REJECT but the
  // reply arrives well within the optimistic window.
  auto config = test_cluster_config(Protocol::Idem, /*clients=*/1);
  Cluster cluster(config);
  auto outcome = invoke_and_wait(cluster, 0, put_cmd("k", "v"));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
}

TEST(IdemIntegration, RejectedCacheServesFetch) {
  // A request rejected by a replica must still be retrievable from its
  // rejected-request cache once the agreement commits it.
  sim::Simulator sim(13);
  sim::SimNetwork net(sim, {});

  core::IdemConfig rc;
  rc.n = 3;
  rc.f = 1;
  rc.reject_threshold = 50;
  rc.forward_timeout = 30 * kSecond;  // effectively disable forwarding

  struct RejectOnReplica2 final : core::AcceptanceTest {
    bool reject;
    explicit RejectOnReplica2(bool reject_) : reject(reject_) {}
    core::AcceptanceVerdict evaluate(RequestId, std::span<const std::byte>,
                                     const core::AcceptanceContext&) override {
      return reject ? core::AcceptanceVerdict::no() : core::AcceptanceVerdict::yes();
    }
    const char* name() const override { return "test"; }
  };

  std::vector<std::unique_ptr<core::IdemReplica>> replicas;
  for (std::uint32_t i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<core::IdemReplica>(
        sim, net, ReplicaId{i}, rc, std::make_unique<app::KvStore>(),
        std::make_unique<RejectOnReplica2>(i == 2)));
  }
  core::IdemClient client(sim, net, ClientId{0}, {});
  std::optional<consensus::Outcome> outcome;
  client.invoke(test::put_cmd("k", "v"), [&](const consensus::Outcome& o) { outcome = o; });
  sim.run_until(5 * kSecond);

  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  // Replica 2 rejected the request but must have executed it anyway, using
  // its rejected-request cache as the body source (forwarding is off).
  EXPECT_EQ(replicas[2]->last_executed(ClientId{0}), OpNum{1});
  EXPECT_EQ(replicas[2]->stats().rejected, 1u);
  EXPECT_EQ(replicas[2]->stats().forward_accepted, 0u);
}

}  // namespace
}  // namespace idem
