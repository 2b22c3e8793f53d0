// Focused unit tests for the one client of every protocol: IDEM's
// pessimistic/optimistic strategies and timing (Section 5.3), the
// ambivalence warning hook, retransmission, and the leader-only addressing
// Paxos and Paxos_LBR run with (leader fail-over, and when the leader's
// REJECT is definitive).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "consensus/messages.hpp"
#include "idem/client.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace idem {
namespace {

/// A scriptable fake replica: records incoming requests and answers with
/// whatever the test tells it to.
class FakeReplica final : public sim::Node {
 public:
  FakeReplica(sim::Simulator& sim, sim::SimNetwork& net, ReplicaId id)
      : sim::Node(sim, net, consensus::replica_address(id), sim::NodeKind::Replica),
        me_(id) {}

  enum class Behavior { Silent, Reject, Reply };
  Behavior behavior = Behavior::Silent;
  Duration response_delay = 0;
  std::vector<RequestId> seen;

  /// Replays a reply for an old operation (tests stale-reply filtering).
  void send_stale_reply(RequestId id, sim::NodeId client) {
    send(client, std::make_shared<const msg::Reply>(id, std::vector<std::byte>{}));
  }

 protected:
  void on_message(sim::NodeId from, const sim::Payload& message) override {
    const auto* request = dynamic_cast<const msg::Request*>(&message);
    if (request == nullptr) return;
    seen.push_back(request->id);
    sim::NodeId client = from;
    RequestId id = request->id;
    Behavior what = behavior;
    set_timer(response_delay, [this, client, id, what] {
      switch (what) {
        case Behavior::Silent:
          break;
        case Behavior::Reject:
          send(client, std::make_shared<const msg::Reject>(id));
          break;
        case Behavior::Reply:
          send(client, std::make_shared<const msg::Reply>(id, std::vector<std::byte>{}));
          break;
      }
    });
  }

 private:
  ReplicaId me_;
};

struct ClientFixture {
  sim::Simulator sim{5};
  sim::NetworkConfig net_config;
  std::unique_ptr<sim::SimNetwork> net;
  std::vector<std::unique_ptr<FakeReplica>> replicas;

  ClientFixture() {
    net_config.jitter_mean = 0;  // deterministic timing for assertions
    net = std::make_unique<sim::SimNetwork>(sim, net_config);
    for (std::uint32_t i = 0; i < 3; ++i) {
      replicas.push_back(std::make_unique<FakeReplica>(sim, *net, ReplicaId{i}));
    }
  }

  std::optional<consensus::Outcome> invoke(core::IdemClient& client) {
    std::optional<consensus::Outcome> outcome;
    client.invoke(test::put_cmd("k", "v"),
                  [&](const consensus::Outcome& o) { outcome = o; });
    sim.run_until(sim.now() + 30 * kSecond);
    return outcome;
  }
};

TEST(IdemClientUnit, OptimisticWaitsExactlyTheConfiguredWindow) {
  ClientFixture f;
  // Two rejects arrive promptly; the third replica stays silent. The
  // optimistic client must abort `optimistic_wait` after the 2nd reject.
  f.replicas[0]->behavior = FakeReplica::Behavior::Reject;
  f.replicas[1]->behavior = FakeReplica::Behavior::Reject;
  f.replicas[2]->behavior = FakeReplica::Behavior::Silent;

  core::IdemClientConfig config;
  config.optimistic_wait = 5 * kMillisecond;
  config.retry_interval = 0;  // no retransmission noise
  core::IdemClient client(f.sim, *f.net, ClientId{0}, config);

  auto outcome = f.invoke(client);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Rejected);
  EXPECT_EQ(outcome->rejects_seen, 2u);
  // Latency = one-way + reject + optimistic window, so slightly above 5 ms
  // but nowhere near a generic timeout.
  EXPECT_GE(outcome->latency(), 5 * kMillisecond);
  EXPECT_LT(outcome->latency(), 6 * kMillisecond);
}

TEST(IdemClientUnit, OptimisticSavedByLateReply) {
  ClientFixture f;
  f.replicas[0]->behavior = FakeReplica::Behavior::Reject;
  f.replicas[1]->behavior = FakeReplica::Behavior::Reject;
  f.replicas[2]->behavior = FakeReplica::Behavior::Reply;
  f.replicas[2]->response_delay = 3 * kMillisecond;  // late but within the window

  core::IdemClientConfig config;
  config.optimistic_wait = 5 * kMillisecond;
  core::IdemClient client(f.sim, *f.net, ClientId{0}, config);

  auto outcome = f.invoke(client);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  EXPECT_EQ(outcome->rejects_seen, 2u);
}

TEST(IdemClientUnit, PessimisticAbortsImmediately) {
  ClientFixture f;
  f.replicas[0]->behavior = FakeReplica::Behavior::Reject;
  f.replicas[1]->behavior = FakeReplica::Behavior::Reject;
  f.replicas[2]->behavior = FakeReplica::Behavior::Reply;
  f.replicas[2]->response_delay = 3 * kMillisecond;

  core::IdemClientConfig config;
  config.strategy = core::IdemClientConfig::Strategy::Pessimistic;
  core::IdemClient client(f.sim, *f.net, ClientId{0}, config);

  auto outcome = f.invoke(client);
  ASSERT_TRUE(outcome.has_value());
  // The pessimistic client aborted before the late reply could arrive.
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Rejected);
  EXPECT_LT(outcome->latency(), kMillisecond);
}

TEST(IdemClientUnit, AmbivalenceWarningFiresOnce) {
  ClientFixture f;
  for (auto& replica : f.replicas) replica->behavior = FakeReplica::Behavior::Reject;

  core::IdemClientConfig config;
  config.optimistic_wait = 5 * kMillisecond;
  core::IdemClient client(f.sim, *f.net, ClientId{0}, config);
  int warnings = 0;
  std::size_t rejects_at_warning = 0;
  client.on_ambivalence = [&](std::size_t rejects) {
    ++warnings;
    rejects_at_warning = rejects;
  };

  auto outcome = f.invoke(client);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Rejected);
  // The warning fired exactly once, at the (n-f)th = 2nd reject, before
  // the final (3rd) reject turned ambivalence into definitive failure.
  EXPECT_EQ(warnings, 1);
  EXPECT_EQ(rejects_at_warning, 2u);
  EXPECT_TRUE(outcome->definitive_failure);
}

TEST(IdemClientUnit, AllRejectsShortCircuitsOptimisticWait) {
  ClientFixture f;
  for (auto& replica : f.replicas) replica->behavior = FakeReplica::Behavior::Reject;

  core::IdemClientConfig config;
  config.optimistic_wait = 50 * kMillisecond;
  core::IdemClient client(f.sim, *f.net, ClientId{0}, config);

  auto outcome = f.invoke(client);
  ASSERT_TRUE(outcome.has_value());
  // n rejects = failure state: no point waiting out the optimistic window.
  EXPECT_EQ(outcome->rejects_seen, 3u);
  EXPECT_LT(outcome->latency(), 5 * kMillisecond);
}

TEST(IdemClientUnit, RetransmitsWhenUnanswered) {
  ClientFixture f;
  for (auto& replica : f.replicas) replica->behavior = FakeReplica::Behavior::Silent;

  core::IdemClientConfig config;
  config.retry_interval = 100 * kMillisecond;
  config.operation_timeout = 450 * kMillisecond;
  core::IdemClient client(f.sim, *f.net, ClientId{0}, config);

  auto outcome = f.invoke(client);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Timeout);
  // Initial send + 4 retries before the 450 ms deadline.
  EXPECT_EQ(f.replicas[0]->seen.size(), 5u);
}

TEST(IdemClientUnit, StaleRepliesIgnored) {
  ClientFixture f;
  f.replicas[0]->behavior = FakeReplica::Behavior::Reply;

  core::IdemClient client(f.sim, *f.net, ClientId{0}, {});
  auto first = f.invoke(client);
  ASSERT_TRUE(first.has_value());

  // Second operation: a replica replays the *old* reply (id mismatch);
  // the client must not complete on it.
  f.replicas[0]->behavior = FakeReplica::Behavior::Silent;
  std::optional<consensus::Outcome> second;
  client.invoke(test::put_cmd("k", "v2"),
                [&](const consensus::Outcome& o) { second = o; });
  RequestId stale{ClientId{0}, OpNum{1}};
  f.replicas[0]->send_stale_reply(stale, consensus::client_address(ClientId{0}));
  f.sim.run_until(f.sim.now() + 100 * kMillisecond);
  EXPECT_FALSE(second.has_value());
}

TEST(IdemClientUnit, LeaderOnlyCyclesThroughPresumedLeaders) {
  ClientFixture f;
  // Only replica 2 answers; the client must fail over twice to find it.
  f.replicas[2]->behavior = FakeReplica::Behavior::Reply;

  core::IdemClientConfig config;
  config.leader_only = true;
  config.retry_interval = 100 * kMillisecond;
  core::IdemClient client(f.sim, *f.net, ClientId{0}, config);

  std::optional<consensus::Outcome> outcome;
  client.invoke(test::put_cmd("k", "v"), [&](const consensus::Outcome& o) { outcome = o; });
  f.sim.run_until(f.sim.now() + 10 * kSecond);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  // ~2 fail-over intervals before reaching replica 2, one try per replica.
  EXPECT_GE(outcome->latency(), 200 * kMillisecond);
  EXPECT_EQ(client.presumed_leader(), ReplicaId{2});
  for (const auto& replica : f.replicas) EXPECT_EQ(replica->seen.size(), 1u);

  // The next operation goes straight to the known leader.
  std::optional<consensus::Outcome> next;
  client.invoke(test::put_cmd("k", "v2"), [&](const consensus::Outcome& o) { next = o; });
  f.sim.run_until(f.sim.now() + 10 * kSecond);
  ASSERT_TRUE(next.has_value());
  EXPECT_LT(next->latency(), 10 * kMillisecond);
  EXPECT_EQ(f.replicas[0]->seen.size(), 1u);
}

TEST(IdemClientUnit, LeaderOnlyFirstTryRejectIsDefinitive) {
  ClientFixture f;
  // Paxos_LBR: the leader alone decides, so its one REJECT of the only
  // try means the request can never execute.
  f.replicas[0]->behavior = FakeReplica::Behavior::Reject;

  core::IdemClientConfig config;
  config.leader_only = true;
  config.retry_interval = 100 * kMillisecond;
  core::IdemClient client(f.sim, *f.net, ClientId{0}, config);

  auto outcome = f.invoke(client);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Rejected);
  EXPECT_EQ(outcome->rejects_seen, 1u);
  EXPECT_TRUE(outcome->definitive_failure);
  EXPECT_LT(outcome->latency(), kMillisecond);
  EXPECT_EQ(f.replicas[1]->seen.size(), 0u);
  EXPECT_EQ(f.replicas[2]->seen.size(), 0u);
}

TEST(IdemClientUnit, LeaderOnlyRejectAfterFailoverIsNotDefinitive) {
  ClientFixture f;
  // Replica 0 answers the first try with a REJECT that arrives only after
  // the client failed over to replica 1. Paper Section 4.5 counts
  // rejections for this try only: replica 1 may have accepted the
  // retransmission, so the REJECT ends the operation but must not promise
  // that the request never executes. The rejecting replica answered, so it
  // is the presumed leader again.
  f.replicas[0]->behavior = FakeReplica::Behavior::Reject;
  f.replicas[0]->response_delay = 150 * kMillisecond;

  core::IdemClientConfig config;
  config.leader_only = true;
  config.retry_interval = 100 * kMillisecond;
  core::IdemClient client(f.sim, *f.net, ClientId{0}, config);

  auto outcome = f.invoke(client);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Rejected);
  EXPECT_EQ(outcome->rejects_seen, 1u);
  EXPECT_FALSE(outcome->definitive_failure);
  EXPECT_GE(outcome->latency(), 150 * kMillisecond);
  EXPECT_LT(outcome->latency(), 200 * kMillisecond);
  EXPECT_EQ(f.replicas[1]->seen.size(), 1u);
  EXPECT_EQ(client.presumed_leader(), ReplicaId{0});
}

}  // namespace
}  // namespace idem
