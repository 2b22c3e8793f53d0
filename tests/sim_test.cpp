// Unit tests for the discrete-event simulation substrate: event queue,
// simulator, fair-loss network, and the node CPU/service-queue model with
// its wall-clock dispatch rule.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

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
  }
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

}  // namespace
}  // namespace idem::sim
