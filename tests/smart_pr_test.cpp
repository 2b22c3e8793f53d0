// Tests for SMaRt+PR: collaborative proactive rejection composed with the
// SMaRt-analog agreement (the paper's Section 4.2 modularity claim).
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace idem {
namespace {

using harness::Cluster;
using harness::Protocol;
using test::get_cmd;
using test::invoke_and_wait;
using test::put_cmd;
using test::test_cluster_config;

TEST(SmartPR, BasicPutGet) {
  Cluster cluster(test_cluster_config(Protocol::SmartPR));
  ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("k", "v"))->kind,
            consensus::Outcome::Kind::Reply);
  auto get = invoke_and_wait(cluster, 0, get_cmd("k"));
  ASSERT_EQ(get->kind, consensus::Outcome::Kind::Reply);
  EXPECT_EQ(app::KvResult::decode(get->result).values.at(0), "v");
}

TEST(SmartPR, AllReplicasExecuteIdentically) {
  Cluster cluster(test_cluster_config(Protocol::SmartPR, /*clients=*/3));
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
  EXPECT_EQ(recorder.log(2).size(), 30u);
}

TEST(SmartPR, RejectsWhenSaturated) {
  auto config = test_cluster_config(Protocol::SmartPR);
  config.reject_threshold = 0;
  Cluster cluster(config);
  auto outcome = invoke_and_wait(cluster, 0, put_cmd("k", "v"), 5 * kSecond);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Rejected);
  EXPECT_TRUE(outcome->definitive_failure);
  EXPECT_EQ(outcome->rejects_seen, 3u);
}

TEST(SmartPR, SingleAcceptorStillExecutes) {
  // Liveness (Property 5.1) carries over to the composed protocol: only
  // replica 0 accepts, the others reject; forwarding completes agreement.
  auto config = test_cluster_config(Protocol::SmartPR);
  config.idem_client.optimistic_wait = 200 * kMillisecond;
  config.acceptance_factory = [](std::size_t replica) {
    struct RejectAll final : core::AcceptanceTest {
      core::AcceptanceVerdict evaluate(RequestId, std::span<const std::byte>,
                                       const core::AcceptanceContext&) override {
        return core::AcceptanceVerdict::no();
      }
      const char* name() const override { return "reject-all"; }
    };
    if (replica == 0) return std::unique_ptr<core::AcceptanceTest>(new core::NeverReject());
    return std::unique_ptr<core::AcceptanceTest>(new RejectAll());
  };
  Cluster cluster(config);

  auto outcome = invoke_and_wait(cluster, 0, put_cmd("k", "v"), 10 * kSecond);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  cluster.simulator().run_for(kSecond);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.smart_pr_replica(i)->stats().executed, 1u) << "replica " << i;
  }
  EXPECT_GT(cluster.smart_pr_replica(0)->intake().stats().forwards_sent, 0u);
}

TEST(SmartPR, FollowerCrashStillLive) {
  Cluster cluster(test_cluster_config(Protocol::SmartPR));
  cluster.crash_replica(2);
  for (int i = 0; i < 5; ++i) {
    auto outcome = invoke_and_wait(cluster, 0, put_cmd("k", "v" + std::to_string(i)));
    ASSERT_TRUE(outcome.has_value());
    ASSERT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  }
}

TEST(SmartPR, ActiveSlotFreedAfterExecution) {
  Cluster cluster(test_cluster_config(Protocol::SmartPR));
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(invoke_and_wait(cluster, 0, put_cmd("k", "v"))->kind,
              consensus::Outcome::Kind::Reply);
  }
  cluster.simulator().run_for(kSecond);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.smart_pr_replica(i)->intake().active_requests(), 0u) << "replica " << i;
  }
}

TEST(SmartPR, ExactlyOnceUnderLoss) {
  auto config = test_cluster_config(Protocol::SmartPR, /*clients=*/2, /*seed=*/7);
  config.network.drop_probability = 0.15;
  Cluster cluster(config);
  test::ExecutionRecorder recorder(cluster);
  for (int i = 0; i < 8; ++i) {
    for (std::size_t c = 0; c < 2; ++c) {
      auto outcome = invoke_and_wait(cluster, c, put_cmd("k", "v"), 60 * kSecond);
      ASSERT_TRUE(outcome.has_value());
      ASSERT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
    }
  }
  cluster.network().set_drop_probability(0);
  cluster.simulator().run_for(5 * kSecond);
  recorder.expect_consistent();
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::uint64_t onr = 1; onr <= 8; ++onr) {
      EXPECT_LE(recorder.count_executions(0, RequestId{ClientId{c}, OpNum{onr}}), 1u);
    }
  }
}

}  // namespace
}  // namespace idem
