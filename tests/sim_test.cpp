// Unit tests for the discrete-event simulation substrate: event queue,
// simulator, fair-loss network, and the node CPU/service-queue model with
// its wall-clock dispatch rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "consensus/addresses.hpp"
#include "core/acceptance.hpp"
#include "idem/replica.hpp"
#include "rpc/event_loop.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace idem::sim {
namespace {

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAtEqualTime) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  EventId id = q.push(10, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceIsNoop) {
  EventQueue q;
  EventId id = q.push(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  EventId early = q.push(10, [] {});
  q.push(20, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EventId a = q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_after(100, [&] { seen = sim.now(); });
  sim.run_until(1000);
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(Simulator, RunUntilDoesNotExecuteLaterEvents) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(500, [&] { fired = true; });
  sim.run_until(499);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), 499);
  sim.run_until(500);
  EXPECT_TRUE(fired);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  std::vector<Time> times;
  sim.schedule_after(10, [&] {
    times.push_back(sim.now());
    sim.schedule_after(10, [&] { times.push_back(sim.now()); });
  });
  sim.run_until(100);
  EXPECT_EQ(times, (std::vector<Time>{10, 20}));
}

TEST(Simulator, RngStreamsAreStable) {
  Simulator a(42), b(42);
  EXPECT_EQ(a.rng("x").next_u64(), b.rng("x").next_u64());
  Simulator c(43);
  EXPECT_NE(a.rng("x").next_u64(), c.rng("x").next_u64());
}

TEST(Simulator, RunWhileStops) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 100; ++i) sim.schedule_after(i, [&] { ++count; });
  sim.run_while([&] { return count < 10; });
  EXPECT_EQ(count, 10);
}

// ---------------------------------------------------------------------------
// Network + Node
// ---------------------------------------------------------------------------

struct TestPayload final : Payload {
  std::size_t size;
  explicit TestPayload(std::size_t size_) : size(size_) {}
  std::size_t wire_size() const override { return size; }
  std::string kind() const override { return "TEST"; }
};

class RecordingNode final : public Node {
 public:
  RecordingNode(Simulator& sim, SimNetwork& net, NodeId id, Duration per_message = 0)
      : Node(sim, net, id, NodeKind::Replica), per_message_(per_message) {}

  std::vector<Time> arrivals;
  using Node::charge;
  using Node::send;
  using Node::set_timer;

 protected:
  void on_message(NodeId, const Payload&) override { arrivals.push_back(now()); }
  Duration message_cost(const Payload&) const override { return per_message_; }

 private:
  Duration per_message_;
};

struct NetFixture {
  Simulator sim{7};
  NetworkConfig config;
  std::unique_ptr<SimNetwork> net;

  explicit NetFixture(NetworkConfig cfg = {}) : config(cfg) {
    net = std::make_unique<SimNetwork>(sim, config);
  }
};

TEST(Network, DeliversWithLatency) {
  NetworkConfig cfg;
  cfg.base_latency = 100 * kMicrosecond;
  cfg.jitter_mean = 0;
  cfg.ns_per_byte = 0;
  NetFixture f(cfg);
  RecordingNode a(f.sim, *f.net, NodeId{1});
  RecordingNode b(f.sim, *f.net, NodeId{2});
  a.send(NodeId{2}, std::make_shared<TestPayload>(10));
  f.sim.run_until(kSecond);
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0], 100 * kMicrosecond);
}

TEST(Network, SizeDependentTransmission) {
  NetworkConfig cfg;
  cfg.base_latency = 0;
  cfg.jitter_mean = 0;
  cfg.ns_per_byte = 10.0;
  cfg.header_bytes = 0;
  NetFixture f(cfg);
  RecordingNode a(f.sim, *f.net, NodeId{1});
  RecordingNode b(f.sim, *f.net, NodeId{2});
  a.send(NodeId{2}, std::make_shared<TestPayload>(1000));
  f.sim.run_until(kSecond);
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0], 10'000);
}

TEST(Network, CountsTrafficBySenderAndKind) {
  NetFixture f;
  RecordingNode replica(f.sim, *f.net, NodeId{1});
  RecordingNode client(f.sim, *f.net, NodeId{1'000'000});
  f.net->remove_node(NodeId{1'000'000});
  f.net->add_node(NodeId{1'000'000}, NodeKind::Client, &client);

  replica.send(NodeId{1'000'000}, std::make_shared<TestPayload>(100));
  client.send(NodeId{1}, std::make_shared<TestPayload>(50));
  f.sim.run_until(kSecond);

  EXPECT_EQ(f.net->client_traffic().messages, 2u);
  EXPECT_EQ(f.net->client_traffic().bytes, 100 + 50 + 2 * f.config.header_bytes);
  EXPECT_EQ(f.net->replica_traffic().messages, 0u);
}

TEST(Network, ReplicaToReplicaTraffic) {
  NetFixture f;
  RecordingNode a(f.sim, *f.net, NodeId{1});
  RecordingNode b(f.sim, *f.net, NodeId{2});
  a.send(NodeId{2}, std::make_shared<TestPayload>(10));
  f.sim.run_until(kSecond);
  EXPECT_EQ(f.net->replica_traffic().messages, 1u);
  EXPECT_EQ(f.net->client_traffic().messages, 0u);
}

TEST(Network, DropProbabilityOneDropsAll) {
  NetworkConfig cfg;
  cfg.drop_probability = 1.0;
  NetFixture f(cfg);
  RecordingNode a(f.sim, *f.net, NodeId{1});
  RecordingNode b(f.sim, *f.net, NodeId{2});
  for (int i = 0; i < 10; ++i) a.send(NodeId{2}, std::make_shared<TestPayload>(10));
  f.sim.run_until(kSecond);
  EXPECT_TRUE(b.arrivals.empty());
  EXPECT_EQ(f.net->dropped_messages(), 10u);
  // Traffic is still counted at the sender.
  EXPECT_EQ(f.net->replica_traffic().messages, 10u);
}

TEST(Network, PartitionBlocksBothDirections) {
  NetFixture f;
  RecordingNode a(f.sim, *f.net, NodeId{1});
  RecordingNode b(f.sim, *f.net, NodeId{2});
  f.net->partition({NodeId{1}}, {NodeId{2}});
  a.send(NodeId{2}, std::make_shared<TestPayload>(10));
  b.send(NodeId{1}, std::make_shared<TestPayload>(10));
  f.sim.run_until(kSecond);
  EXPECT_TRUE(a.arrivals.empty());
  EXPECT_TRUE(b.arrivals.empty());

  f.net->heal();
  a.send(NodeId{2}, std::make_shared<TestPayload>(10));
  f.sim.run_until(2 * kSecond);
  EXPECT_EQ(b.arrivals.size(), 1u);
}

TEST(Network, SendToUnknownNodeIsDropped) {
  NetFixture f;
  RecordingNode a(f.sim, *f.net, NodeId{1});
  a.send(NodeId{99}, std::make_shared<TestPayload>(10));
  f.sim.run_until(kSecond);
  EXPECT_EQ(f.net->dropped_messages(), 1u);
}

TEST(Node, CpuQueueingDelaysMessages) {
  NetworkConfig cfg;
  cfg.base_latency = 0;
  cfg.jitter_mean = 0;
  cfg.ns_per_byte = 0;
  NetFixture f(cfg);
  RecordingNode sender(f.sim, *f.net, NodeId{1});
  RecordingNode busy(f.sim, *f.net, NodeId{2}, /*per_message=*/100 * kMicrosecond);
  for (int i = 0; i < 3; ++i) sender.send(NodeId{2}, std::make_shared<TestPayload>(1));
  f.sim.run_until(kSecond);
  ASSERT_EQ(busy.arrivals.size(), 3u);
  // Handler runs after the message's own service time; messages queue.
  EXPECT_EQ(busy.arrivals[0], 100 * kMicrosecond);
  EXPECT_EQ(busy.arrivals[1], 200 * kMicrosecond);
  EXPECT_EQ(busy.arrivals[2], 300 * kMicrosecond);
}

TEST(Node, ChargeExtendsBusyPeriod) {
  NetworkConfig cfg;
  cfg.base_latency = 0;
  cfg.jitter_mean = 0;
  cfg.ns_per_byte = 0;
  NetFixture f(cfg);

  class ChargingNode final : public Node {
   public:
    using Node::Node;
    std::vector<Time> arrivals;

   protected:
    void on_message(NodeId, const Payload&) override {
      arrivals.push_back(now());
      charge(kMillisecond);  // execution work
    }
  };

  RecordingNode sender(f.sim, *f.net, NodeId{1});
  ChargingNode busy(f.sim, *f.net, NodeId{2}, NodeKind::Replica);
  for (int i = 0; i < 2; ++i) sender.send(NodeId{2}, std::make_shared<TestPayload>(1));
  f.sim.run_until(kSecond);
  ASSERT_EQ(busy.arrivals.size(), 2u);
  EXPECT_EQ(busy.arrivals[0], 0);
  EXPECT_EQ(busy.arrivals[1], kMillisecond);  // delayed by the charge
}

TEST(Node, CrashDropsQueuedAndFutureMessages) {
  NetFixture f;
  RecordingNode sender(f.sim, *f.net, NodeId{1});
  RecordingNode victim(f.sim, *f.net, NodeId{2}, /*per_message=*/kMillisecond);
  for (int i = 0; i < 5; ++i) sender.send(NodeId{2}, std::make_shared<TestPayload>(1));
  f.sim.schedule_after(1500 * kMicrosecond, [&] { victim.crash(); });
  f.sim.run_until(kSecond);
  // Only the first message completed processing before the crash.
  EXPECT_LE(victim.arrivals.size(), 1u);
  EXPECT_TRUE(victim.crashed());
}

TEST(Node, TimersFireAndCancel) {
  NetFixture f;
  RecordingNode node(f.sim, *f.net, NodeId{1});
  int fired = 0;
  node.set_timer(10 * kMillisecond, [&] { ++fired; });
  TimerId cancelled = node.set_timer(20 * kMillisecond, [&] { ++fired; });
  f.sim.cancel(cancelled.event);
  f.sim.run_until(kSecond);
  EXPECT_EQ(fired, 1);
}

TEST(Node, NoTimerAfterCrash) {
  NetFixture f;
  RecordingNode node(f.sim, *f.net, NodeId{1});
  int fired = 0;
  node.set_timer(10 * kMillisecond, [&] { ++fired; });
  node.crash();
  f.sim.run_until(kSecond);
  EXPECT_EQ(fired, 0);
}

TEST(Node, DestroyedNodeEventsAreSafe) {
  NetFixture f;
  RecordingNode sender(f.sim, *f.net, NodeId{1});
  {
    RecordingNode ephemeral(f.sim, *f.net, NodeId{2});
    ephemeral.set_timer(10 * kMillisecond, [] { FAIL() << "timer fired after destruction"; });
    sender.send(NodeId{2}, std::make_shared<TestPayload>(1));
  }
  // Node destroyed; its pending events must be no-ops.
  f.sim.run_until(kSecond);
}

TEST(Node, DeterministicReplay) {
  auto run = [](std::uint64_t seed) {
    Simulator sim(seed);
    NetworkConfig cfg;
    SimNetwork net(sim, cfg);
    RecordingNode a(sim, net, NodeId{1});
    RecordingNode b(sim, net, NodeId{2}, /*per_message=*/10 * kMicrosecond);
    for (int i = 0; i < 50; ++i) {
      sim.schedule_after(i * 100 * kMicrosecond,
                         [&] { a.send(NodeId{2}, std::make_shared<TestPayload>(10)); });
    }
    sim.run_until(kSecond);
    return b.arrivals;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));  // jitter differs across seeds
}

// Dispatch: the runtime's clock picks the rule. The messages are handed to
// deliver() directly, as a real event loop does.

struct TaggedPayload final : Payload {
  int tag;
  Duration deadline;
  Duration cost;
  TaggedPayload(int t, Duration d, Duration c) : tag(t), deadline(d), cost(c) {}
  std::size_t wire_size() const override { return 1; }
  std::string kind() const override { return "TAGGED"; }
};

class DispatchNode final : public Node {
 public:
  DispatchNode(Runtime& runtime, Transport& net, DisciplineKind discipline)
      : Node(runtime, net, NodeId{1}, NodeKind::Replica) {
    set_discipline(discipline);
  }

  std::vector<int> handled;
  std::vector<NodeId> senders;
  mutable int costs_asked = 0;
  bool ask_flush = false;  ///< every handled message asks for after_flush()
  int flushed = 0;         ///< on_flushed() calls

  void take(std::uint32_t from, int tag, Duration deadline = 0, Duration cost = 0) {
    deliver(NodeId{from}, std::make_shared<TaggedPayload>(tag, deadline, cost));
  }

 protected:
  static const TaggedPayload& tagged(const Payload& m) {
    return static_cast<const TaggedPayload&>(m);
  }
  void on_message(NodeId from, const Payload& m) override {
    handled.push_back(tagged(m).tag);
    senders.push_back(from);
    if (ask_flush) after_flush();
  }
  void on_flushed() override { ++flushed; }
  Duration message_cost(const Payload& m) const override {
    ++costs_asked;
    return tagged(m).cost;
  }
  Duration message_deadline(const Payload& m) const override { return tagged(m).deadline; }
};

TEST(Node, SimulatorQueuesEveryDelivery) {
  // Even a free, budget-less message waits for the modelled CPU: it is
  // handled from the runtime's event queue, never inside deliver().
  for (DisciplineKind discipline : {DisciplineKind::Fifo, DisciplineKind::Edf}) {
    NetFixture f;
    DispatchNode node(f.sim, *f.net, discipline);
    node.take(2, 1);
    EXPECT_TRUE(node.handled.empty());
    EXPECT_EQ(f.sim.pending_events(), 1u);
    f.sim.run_until(kSecond);
    EXPECT_EQ(node.handled, std::vector<int>{1});
    EXPECT_EQ(node.costs_asked, 1);
  }
}

TEST(Node, EdfQueuesDeadlineMessagesAndDrainsEarliestDueFirst) {
  NetFixture f;
  DispatchNode node(f.sim, *f.net, DisciplineKind::Edf);
  // The first one enters service at once and the rest queue behind it, the
  // budget-less one included: it counts as due at arrival.
  node.take(2, 1, 40 * kMillisecond);
  node.take(2, 2);
  node.take(2, 3, 30 * kMillisecond);
  node.take(2, 4, 10 * kMillisecond);
  node.take(2, 5, 20 * kMillisecond);
  EXPECT_TRUE(node.handled.empty());
  EXPECT_EQ(node.queue_length(), 4u);
  f.sim.run_until(kSecond);
  EXPECT_EQ(node.handled, (std::vector<int>{1, 2, 4, 5, 3}));
}

// Service-queue order on the simulator. In each case the first message
// enters service at once and holds the CPU, so the ones delivered after it
// wait in the node's FIFO ring or EDF heap.

TEST(Discipline, FifoPopsInArrivalOrder) {
  // Budgets are ignored under FIFO: arrival order rules.
  NetFixture f;
  DispatchNode node(f.sim, *f.net, DisciplineKind::Fifo);
  for (int i = 0; i < 5; ++i) {
    node.take(2, i, /*deadline=*/(100 - i) * kMillisecond, /*cost=*/kMillisecond);
  }
  EXPECT_EQ(node.queue_length(), 4u);
  f.sim.run_until(kSecond);
  EXPECT_EQ(node.handled, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(node.queue_length(), 0u);
}

TEST(Discipline, FifoRingSurvivesWraparoundAndGrowth) {
  // Each message holds the CPU for 1 ms. Two arrive per millisecond and
  // one is served, so the ring's head wraps while it grows from 8 slots
  // past 256.
  NetFixture f;
  DispatchNode node(f.sim, *f.net, DisciplineKind::Fifo);
  int next = 0;
  for (int round = 0; round < 300; ++round) {
    node.take(2, next++, 0, kMillisecond);
    node.take(2, next++, 0, kMillisecond);
    f.sim.run_until(f.sim.now() + kMillisecond);
  }
  EXPECT_GT(node.queue_length(), 256u);
  f.sim.run_until(kSecond);
  EXPECT_EQ(node.queue_length(), 0u);
  std::vector<int> arrival_order(static_cast<std::size_t>(next));
  std::iota(arrival_order.begin(), arrival_order.end(), 0);
  EXPECT_EQ(node.handled, arrival_order);
}

TEST(Discipline, FifoPreservesSender) {
  // Twenty waiting messages from five senders also grow the ring once.
  NetFixture f;
  DispatchNode node(f.sim, *f.net, DisciplineKind::Fifo);
  std::vector<NodeId> senders;
  for (int i = 0; i < 20; ++i) {
    const auto from = static_cast<std::uint32_t>(2 + i % 5);
    node.take(from, i, 0, kMillisecond);
    senders.push_back(NodeId{from});
  }
  f.sim.run_until(kSecond);
  EXPECT_EQ(node.senders, senders);
}

TEST(Discipline, EdfPopsEarliestDueFirst) {
  NetFixture f;
  DispatchNode node(f.sim, *f.net, DisciplineKind::Edf);
  node.take(2, 9, 0, kMillisecond);
  node.take(2, 0, 300 * kMillisecond);
  node.take(2, 1, 100 * kMillisecond);
  node.take(2, 2, 200 * kMillisecond);
  f.sim.run_until(kSecond);
  EXPECT_EQ(node.handled, (std::vector<int>{9, 1, 2, 0}));
}

TEST(Discipline, EdfTiesBreakByArrivalOrder) {
  // Equal due times are served in arrival order: the arrival sequence
  // makes the heap a total order, keeping simulated trajectories
  // deterministic.
  NetFixture f;
  DispatchNode node(f.sim, *f.net, DisciplineKind::Edf);
  node.take(2, -1, 0, kMillisecond);
  for (int i = 0; i < 16; ++i) node.take(2, i, 42 * kMillisecond);
  f.sim.run_until(kSecond);
  std::vector<int> arrival_order(17);
  std::iota(arrival_order.begin(), arrival_order.end(), -1);
  EXPECT_EQ(node.handled, arrival_order);
}

TEST(Discipline, EdfDeadlinelessTrafficKeepsPriority) {
  // Agreement traffic carries no budget and is due at arrival; a client
  // request that arrived before it with a budget must not starve it.
  NetFixture f;
  DispatchNode node(f.sim, *f.net, DisciplineKind::Edf);
  node.take(2, 0, 0, kMillisecond);
  node.take(2, 1, 50 * kMicrosecond);  // client request, due at 50 us
  f.sim.run_until(kMicrosecond);
  node.take(3, 2);  // peer message, due at 1 us
  f.sim.run_until(kSecond);
  EXPECT_EQ(node.handled, (std::vector<int>{0, 2, 1}));
}

TEST(Discipline, EdfInterleavedChurnStaysOrdered) {
  // Each message holds the CPU for 1 ms. Arrivals between services join
  // the heap and are ordered with what already waits.
  NetFixture f;
  DispatchNode node(f.sim, *f.net, DisciplineKind::Edf);
  node.take(2, 9, 0, kMillisecond);
  node.take(2, 0, 50 * kMillisecond, kMillisecond);  // due at 50 ms
  node.take(2, 1, 10 * kMillisecond, kMillisecond);  // due at 10 ms
  f.sim.run_until(1500 * kMicrosecond);  // 9 done, 1 in service
  EXPECT_EQ(node.handled, std::vector<int>{9});
  node.take(2, 2, 40 * kMillisecond, kMillisecond);  // due at 41.5 ms
  node.take(2, 3, 60 * kMillisecond, kMillisecond);  // due at 61.5 ms
  f.sim.run_until(kSecond);
  EXPECT_EQ(node.handled, (std::vector<int>{9, 1, 2, 0, 3}));
  EXPECT_EQ(node.queue_length(), 0u);
}

TEST(Node, CrashClearsTheQueueUnderFifoAndEdf) {
  for (DisciplineKind discipline : {DisciplineKind::Fifo, DisciplineKind::Edf}) {
    NetFixture f;
    DispatchNode node(f.sim, *f.net, discipline);
    for (int i = 0; i < 8; ++i) node.take(2, i, (i + 1) * kMillisecond, kMillisecond);
    EXPECT_EQ(node.queue_length(), 7u);  // one in service
    node.crash();
    EXPECT_EQ(node.queue_length(), 0u);
    f.sim.run_until(kSecond);
    EXPECT_TRUE(node.handled.empty());
    // The queue works again after a restart.
    node.restart();
    node.take(2, 99, kMillisecond);
    f.sim.run_until(2 * kSecond);
    EXPECT_EQ(node.handled, std::vector<int>{99});
  }
}

TEST(Node, WallClockHandlesADeliveryInsideDeliver) {
  // No CPU is modelled on an event loop: a message is handled at once,
  // whatever cost the simulator would charge for it, and the cost is
  // never asked. Under EDF so is a message without a budget.
  for (DisciplineKind discipline : {DisciplineKind::Fifo, DisciplineKind::Edf}) {
    rpc::EventLoop loop;
    test::NullTransport net;
    DispatchNode node(loop, net, discipline);
    node.take(2, 1, /*deadline=*/0, /*cost=*/kSecond);
    node.take(3, 2, /*deadline=*/0, /*cost=*/kSecond);
    EXPECT_EQ(node.handled, (std::vector<int>{1, 2}));
    EXPECT_EQ(node.senders, (std::vector<NodeId>{NodeId{2}, NodeId{3}}));
    EXPECT_EQ(node.queue_length(), 0u);
    EXPECT_EQ(node.costs_asked, 0);
  }
}

TEST(Node, WallClockEdfBurstDrainsEarliestDueFirst) {
  // One recv burst under EDF: the budget-less message is handled inside
  // deliver(); the budgeted ones wait for the burst to end and then drain
  // earliest-due first.
  rpc::EventLoop loop;
  test::NullTransport net;
  DispatchNode node(loop, net, DisciplineKind::Edf);
  auto burst = [&node](int base) {
    node.take(2, base + 1, 40 * kMillisecond);
    node.take(2, base + 2);
    node.take(2, base + 3, 30 * kMillisecond);
    node.take(2, base + 4, 10 * kMillisecond);
    node.take(2, base + 5, 20 * kMillisecond);
  };
  burst(0);
  EXPECT_EQ(node.handled, std::vector<int>{2});
  EXPECT_EQ(node.queue_length(), 4u);
  loop.run_for(kMillisecond);
  EXPECT_EQ(node.handled, (std::vector<int>{2, 4, 5, 3, 1}));
  EXPECT_EQ(node.queue_length(), 0u);

  // The next burst drains the same way; one that a crash cuts short is lost.
  burst(10);
  loop.run_for(kMillisecond);
  EXPECT_EQ(node.handled, (std::vector<int>{2, 4, 5, 3, 1, 12, 14, 15, 13, 11}));
  node.take(2, 21, 10 * kMillisecond);
  node.crash();
  loop.run_for(kMillisecond);
  EXPECT_EQ(node.handled.size(), 10u);
  EXPECT_EQ(node.costs_asked, 0);
}

/// Runs `task` on `loop` and returns once the loop iteration that ran it,
/// its flushes and after-flush work included, is over. Timers already due
/// fire in that iteration too.
void run_one_iteration(rpc::EventLoop& loop, const std::function<void()>& task = [] {}) {
  bool ran = false;
  loop.post([&] {
    task();
    ran = true;
  });
  // run_for polls nothing when its thread was preempted past the deadline.
  for (int i = 0; i < 10'000 && !ran; ++i) loop.run_for(kMillisecond);
  ASSERT_TRUE(ran);
}

TEST(Node, WallClockAfterFlushRunsOncePerIteration) {
  // The simulator runs the pass inside each handler; an event loop runs
  // one per iteration, after it, however many handlers asked.
  NetFixture f;
  DispatchNode simulated(f.sim, *f.net, DisciplineKind::Fifo);
  simulated.ask_flush = true;
  for (int i = 0; i < 3; ++i) simulated.take(2, i);
  f.sim.run_until(kSecond);
  EXPECT_EQ(simulated.flushed, 3);

  rpc::EventLoop loop;
  test::NullTransport net;
  DispatchNode node(loop, net, DisciplineKind::Fifo);
  node.ask_flush = true;
  run_one_iteration(loop, [&node] {
    for (int i = 0; i < 3; ++i) node.take(2, i);
  });
  EXPECT_EQ(node.handled, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(node.flushed, 1);
  node.take(2, 3);  // while the loop is idle: the next iteration's pass
  run_one_iteration(loop);
  EXPECT_EQ(node.flushed, 2);
}

// ---------------------------------------------------------------------------
// Step order on an event loop: handlers, timers, the transport's flushes,
// then a follower's execution. An IDEM replica of view 0 (f = 1; replica 1,
// a follower, unless a test picks the leader) is handed its messages
// directly; the transport records every send, and its flush at the end of
// the loop iteration, as rpc::TcpTransport does.
// ---------------------------------------------------------------------------

class FlushingTransport final : public Transport {
 public:
  FlushingTransport(rpc::EventLoop* loop, std::vector<std::string>& log)
      : loop_(loop), log_(log) {}
  void add_node(NodeId, NodeKind, Endpoint*) override {}
  void remove_node(NodeId) override {}
  void send(NodeId, NodeId, PayloadPtr message) override {
    log_.push_back("send " + message->kind());
    if (loop_ == nullptr) return;
    loop_->defer([this, kind = message->kind()] { log_.push_back("flush " + kind); });
  }

 private:
  rpc::EventLoop* loop_;
  std::vector<std::string>& log_;
};

struct StepFixture {
  const NodeId leader = consensus::replica_address(ReplicaId{0});
  const NodeId follower = consensus::replica_address(ReplicaId{1});
  const NodeId client = consensus::client_address(ClientId{0});
  std::vector<std::string> log;
  std::vector<std::uint64_t> executed;  ///< sqns, in execution order
  FlushingTransport net;
  std::unique_ptr<core::IdemReplica> replica;

  StepFixture(Runtime& runtime, rpc::EventLoop* loop, std::uint32_t me = 1) : net(loop, log) {
    core::IdemConfig config;
    config.reject_threshold = 4;  // r_max = 12
    config.viewchange_timeout = 10 * kSecond;
    replica = std::make_unique<core::IdemReplica>(runtime, net, ReplicaId{me}, config,
                                                  std::make_unique<app::KvStore>(),
                                                  std::make_unique<core::NeverReject>());
    replica->on_execute = [this](SeqNum sqn, RequestId) {
      log.push_back("execute " + std::to_string(sqn.value));
      executed.push_back(sqn.value);
    };
  }

  static RequestId id(std::uint64_t onr) { return RequestId{ClientId{0}, OpNum{onr}}; }

  void request(std::uint64_t onr) {
    replica->deliver(client, std::make_shared<const msg::Request>(
                                 id(onr), test::put_cmd("k", "v" + std::to_string(onr))));
  }

  /// Client 0's request `onr` arrives, then the leader binds it to `sqn`.
  void request_and_propose(std::uint64_t onr, std::uint64_t sqn) {
    request(onr);
    auto propose = std::make_shared<msg::Propose>();
    propose->sqn = SeqNum{sqn};
    propose->ids = {id(onr)};
    replica->deliver(leader, std::move(propose));
  }

  std::size_t position(const std::string& entry) const {
    return static_cast<std::size_t>(std::find(log.begin(), log.end(), entry) - log.begin());
  }
};

TEST(StepOrder, FollowerCommitLeavesBeforeItExecutes) {
  rpc::EventLoop loop;
  StepFixture f(loop, &loop);
  run_one_iteration(loop, [&f] { f.request_and_propose(1, 0); });
  ASSERT_EQ(f.executed, std::vector<std::uint64_t>{0});
  // Handlers send (the REQUIRE from the zero-delay timer), the transport
  // flushes, and only then does the follower execute.
  const std::size_t execute = f.position("execute 0");
  EXPECT_LT(f.position("send COMMIT"), execute);
  EXPECT_LT(f.position("flush COMMIT"), execute);
  EXPECT_LT(f.position("flush REQUIRE"), execute);
  EXPECT_EQ(execute, f.log.size() - 1);
}

TEST(StepOrder, FollowerExecutesProposalsOfOneIterationOnceInSqnOrder) {
  rpc::EventLoop loop;
  StepFixture f(loop, &loop);
  run_one_iteration(loop, [&f] {
    f.request_and_propose(2, 1);  // the later instance arrives first
    f.request_and_propose(1, 0);
    EXPECT_TRUE(f.executed.empty());
  });
  EXPECT_EQ(f.executed, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(f.replica->next_execute(), SeqNum{2});
  EXPECT_EQ(f.replica->stats().executed, 2u);
}

TEST(StepOrder, CrashedOrDestroyedFollowerSkipsThePendingPass) {
  {
    rpc::EventLoop loop;
    StepFixture f(loop, &loop);
    run_one_iteration(loop, [&f] {
      f.request_and_propose(1, 0);
      f.replica->crash();
    });
    EXPECT_TRUE(f.executed.empty());
    EXPECT_EQ(f.replica->next_execute(), SeqNum{0});
  }
  rpc::EventLoop loop;
  StepFixture f(loop, &loop);
  run_one_iteration(loop, [&f] {
    f.request_and_propose(1, 0);
    f.replica.reset();
  });
  EXPECT_TRUE(f.executed.empty());
}

TEST(StepOrder, FollowerExecutesPendingWorkBeforeJudgingLag) {
  // A PROPOSE for sqn 12 = r_max tells a follower that has executed
  // nothing that the others moved past sqn 0 (implicit GC), but this one
  // committed sqns 0-11 earlier in the same iteration: it executes them
  // rather than ask for state.
  rpc::EventLoop loop;
  StepFixture f(loop, &loop);
  run_one_iteration(loop, [&f] {
    for (std::uint64_t sqn = 0; sqn <= 12; ++sqn) f.request_and_propose(sqn + 1, sqn);
  });
  EXPECT_EQ(f.replica->next_execute(), SeqNum{13});
  EXPECT_EQ(f.position("send STATE-REQ"), f.log.size());
}

TEST(StepOrder, LeaderExecutesInsideTheHandler) {
  // The leader's REPLY is on the critical path: it executes the moment a
  // COMMIT completes the quorum, before the iteration's flush.
  rpc::EventLoop loop;
  StepFixture f(loop, &loop, /*me=*/0);
  f.request(1);
  auto require = std::make_shared<msg::Require>();
  require->from = ReplicaId{1};
  require->ids = {StepFixture::id(1)};
  f.replica->deliver(f.follower, std::move(require));
  run_one_iteration(loop);  // the zero-delay cut proposes sqn 0
  ASSERT_LT(f.position("flush PROPOSE"), f.log.size());
  run_one_iteration(loop, [&f] {
    auto commit = std::make_shared<msg::Commit>();
    commit->from = ReplicaId{1};
    commit->sqn = SeqNum{0};
    commit->ids = {StepFixture::id(1)};
    f.replica->deliver(f.follower, std::move(commit));
    EXPECT_EQ(f.executed, std::vector<std::uint64_t>{0});
  });
  EXPECT_LT(f.position("execute 0"), f.position("flush REPLY"));
}

TEST(StepOrder, SimulatorExecutesInsideTheHandler) {
  // The simulator's follower executes within the event that handles the
  // PROPOSE: the model sends first and charges execution after.
  Simulator sim(3);
  StepFixture f(sim, nullptr);
  f.request_and_propose(1, 0);
  sim.run_while([&f] { return f.position("send COMMIT") == f.log.size(); });
  EXPECT_EQ(f.executed, std::vector<std::uint64_t>{0});
  EXPECT_LT(f.position("send COMMIT"), f.position("execute 0"));
}

}  // namespace
}  // namespace idem::sim
