// Tests for the Paxos baseline and its leader-based-rejection variant.
#include <gtest/gtest.h>

#include <memory>

#include "paxos/replica.hpp"
#include "test_util.hpp"

namespace idem {
namespace {

using harness::Cluster;
using harness::Protocol;
using test::get_cmd;
using test::invoke_and_wait;
using test::put_cmd;
using test::test_cluster_config;

TEST(Paxos, BasicPutGet) {
  Cluster cluster(test_cluster_config(Protocol::Paxos));
  ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("k", "v"))->kind,
            consensus::Outcome::Kind::Reply);
  auto get = invoke_and_wait(cluster, 0, get_cmd("k"));
  ASSERT_EQ(get->kind, consensus::Outcome::Kind::Reply);
  EXPECT_EQ(app::KvResult::decode(get->result).values.at(0), "v");
}

TEST(Paxos, AllReplicasExecuteIdentically) {
  Cluster cluster(test_cluster_config(Protocol::Paxos, /*clients=*/3));
  test::ExecutionRecorder recorder(cluster);
  for (int round = 0; round < 10; ++round) {
    for (std::size_t c = 0; c < 3; ++c) {
      ASSERT_EQ(invoke_and_wait(cluster, c, put_cmd("key" + std::to_string(c), "v"))->kind,
                consensus::Outcome::Kind::Reply);
    }
  }
  cluster.simulator().run_for(kSecond);
  recorder.expect_consistent();
  EXPECT_EQ(recorder.log(0).size(), 30u);
  EXPECT_EQ(recorder.log(1).size(), 30u);
}

TEST(Paxos, FollowersDropClientRequests) {
  Cluster cluster(test_cluster_config(Protocol::Paxos));
  // Block the client's link to the leader: the request reaches only the
  // followers, which ignore it; the client eventually fails over.
  cluster.network().block_link(consensus::client_address(ClientId{0}),
                               consensus::replica_address(ReplicaId{0}));
  auto outcome = invoke_and_wait(cluster, 0, put_cmd("k", "v"), 30 * kSecond);
  // The client cycles presumed leaders; with replica 0 unreachable it can
  // never succeed (followers drop), so it keeps retrying. Nothing must
  // execute in the meantime.
  EXPECT_FALSE(outcome.has_value());
  EXPECT_EQ(cluster.paxos_replica(1)->stats().executed, 0u);
}

TEST(Paxos, NoRejectionWithoutLBR) {
  auto config = test_cluster_config(Protocol::Paxos, /*clients=*/5);
  Cluster cluster(config);
  for (int i = 0; i < 5; ++i) {
    auto outcome = invoke_and_wait(cluster, std::size_t(i), put_cmd("k", "v"));
    ASSERT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  }
  EXPECT_EQ(cluster.paxos_replica(0)->stats().rejected, 0u);
}

TEST(PaxosLBR, LeaderRejectsAboveThreshold) {
  // A tiny threshold with 20 concurrent clients forces the leader to
  // reject the overflow while still serving some requests.
  auto config2 = test_cluster_config(Protocol::PaxosLBR, /*clients=*/20, /*seed=*/5);
  config2.reject_threshold = 1;
  Cluster busy(config2);
  std::size_t rejected = 0, replied = 0;
  std::size_t completed = 0;
  for (std::size_t c = 0; c < 20; ++c) {
    busy.client(c).invoke(put_cmd("k", "v"), [&](const consensus::Outcome& outcome) {
      ++completed;
      if (outcome.kind == consensus::Outcome::Kind::Rejected) ++rejected;
      if (outcome.kind == consensus::Outcome::Kind::Reply) ++replied;
    });
  }
  busy.simulator().run_while([&] { return completed < 20 && busy.simulator().now() < 30 * kSecond; });
  EXPECT_EQ(completed, 20u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(replied, 0u);
  EXPECT_EQ(busy.paxos_replica(0)->stats().rejected, rejected);
}

TEST(Paxos, LeaderCrashViewChangeAndClientFailover) {
  Cluster cluster(test_cluster_config(Protocol::Paxos));
  ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("a", "1"))->kind,
            consensus::Outcome::Kind::Reply);
  cluster.crash_replica(0);
  auto outcome = invoke_and_wait(cluster, 0, put_cmd("b", "2"), 30 * kSecond);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  EXPECT_TRUE(cluster.paxos_replica(1)->is_leader());

  // Subsequent operations go straight to the new leader (no fail-over).
  Time before = cluster.simulator().now();
  ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("c", "3"))->kind,
            consensus::Outcome::Kind::Reply);
  EXPECT_LT(cluster.simulator().now() - before, kSecond);
}

TEST(Paxos, FollowerCrashNoInterruption) {
  Cluster cluster(test_cluster_config(Protocol::Paxos));
  cluster.crash_replica(2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("k", "v" + std::to_string(i)))->kind,
              consensus::Outcome::Kind::Reply);
  }
  EXPECT_EQ(cluster.paxos_replica(0)->view().value, 0u);
}

TEST(Paxos, HeartbeatsPreventSpuriousViewChange) {
  Cluster cluster(test_cluster_config(Protocol::Paxos));
  ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("k", "v"))->kind,
            consensus::Outcome::Kind::Reply);
  cluster.simulator().run_for(10 * kSecond);  // idle
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.paxos_replica(i)->view().value, 0u) << "replica " << i;
  }
}

TEST(Paxos, ConsistentAfterViewChangeWithInflightRequests) {
  Cluster cluster(test_cluster_config(Protocol::Paxos, /*clients=*/2));
  test::ExecutionRecorder recorder(cluster);
  std::optional<consensus::Outcome> o1, o2;
  cluster.client(0).invoke(put_cmd("x", "1"), [&](const consensus::Outcome& o) { o1 = o; });
  cluster.client(1).invoke(put_cmd("y", "2"), [&](const consensus::Outcome& o) { o2 = o; });
  cluster.apply({sim::Fault::crash(cluster.simulator().now() + 100 * kMicrosecond, 0)});
  cluster.simulator().run_while([&] {
    return (!o1.has_value() || !o2.has_value()) && cluster.simulator().now() < 30 * kSecond;
  });
  ASSERT_TRUE(o1.has_value());
  ASSERT_TRUE(o2.has_value());
  EXPECT_EQ(o1->kind, consensus::Outcome::Kind::Reply);
  EXPECT_EQ(o2->kind, consensus::Outcome::Kind::Reply);
  cluster.simulator().run_for(kSecond);
  recorder.expect_consistent();
}

TEST(Paxos, PromisedReplicaIgnoresAnOlderViewsPropose) {
  // Replica 1 joins a view change to view 3 and ships its window to view
  // 3's leader. A PROPOSE from view 2 must not pull it into view 2: an
  // ACCEPT there could complete a decision view 3's leader never merged.
  sim::Simulator sim(3);
  sim::SimNetwork net(sim, {});
  paxos::PaxosReplica replica(sim, net, ReplicaId{1}, paxos::PaxosConfig{},
                              std::make_unique<app::KvStore>());
  test::Probe r0(sim, net, consensus::replica_address(ReplicaId{0}));
  test::Probe r2(sim, net, consensus::replica_address(ReplicaId{2}));
  for (test::Probe* probe : {&r0, &r2}) {
    auto viewchange = std::make_shared<msg::PaxosViewChange>();
    viewchange->from = consensus::replica_of_address(probe->id());
    viewchange->target = ViewId{3};
    probe->inject(replica.id(), std::move(viewchange));
  }
  sim.run_for(10 * kMillisecond);
  auto joined = r0.received_of<msg::PaxosViewChange>();
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0]->target, ViewId{3});

  auto propose = std::make_shared<msg::PaxosPropose>();
  propose->view = ViewId{2};
  propose->sqn = SeqNum{0};
  propose->requests.emplace_back(RequestId{ClientId{0}, OpNum{1}}, put_cmd("k", "v"));
  r2.inject(replica.id(), std::move(propose));
  sim.run_for(10 * kMillisecond);
  EXPECT_EQ(replica.view(), ViewId{0});
  EXPECT_TRUE(r0.received_of<msg::PaxosAccept>().empty());
  EXPECT_TRUE(r2.received_of<msg::PaxosAccept>().empty());
}

TEST(Paxos, DuplicateSuppressionOnRetry) {
  auto config = test_cluster_config(Protocol::Paxos);
  config.network.drop_probability = 0.3;
  config.seed = 17;
  Cluster cluster(config);
  test::ExecutionRecorder recorder(cluster);
  for (int i = 0; i < 10; ++i) {
    auto outcome = invoke_and_wait(cluster, 0, put_cmd("k", "v"), 60 * kSecond);
    ASSERT_TRUE(outcome.has_value());
    ASSERT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  }
  cluster.network().set_drop_probability(0);
  cluster.simulator().run_for(5 * kSecond);
  // Exactly-once at every replica that executed the op at all; the Paxos
  // baseline has no state transfer, so a replica that fell behind during
  // a lossy view change may legitimately miss old instances.
  recorder.expect_consistent();
  for (std::uint64_t onr = 1; onr <= 10; ++onr) {
    RequestId id{ClientId{0}, OpNum{onr}};
    EXPECT_TRUE(recorder.executed_anywhere(id)) << to_string(id);
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_LE(recorder.count_executions(r, id), 1u) << "replica " << r << " " << to_string(id);
    }
  }
}

}  // namespace
}  // namespace idem
