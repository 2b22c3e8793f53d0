// Proves the kernel's allocation budget (DESIGN.md "Kernel performance
// model"): once warm, the steady-state dispatch path — EventQueue push ->
// pop -> fire, Simulator::step, Node timer set/cancel, and network message
// delivery with a reused payload — performs zero heap allocations. Real
// mode's send path (frame build, queue, end-of-iteration flush) and its
// zero-cost execution charge keep the same budget, and so does counting
// votes (VoteSet, a repeat QuorumTracker vote). The key-value store has a
// budget too: a Get or a same-size Put of an existing key allocates only
// its result, a simulated execution charge nothing, and a restore reserves
// no more than its snapshot can hold.
//
// A counting global operator new/delete pair is armed only inside the
// measured regions; everything else (gtest bookkeeping, warm-up capacity
// growth) allocates freely.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "app/kv_store.hpp"
#include "common/codec.hpp"
#include "consensus/messages.hpp"
#include "consensus/quorum.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "rpc/event_loop.hpp"
#include "rpc/tcp_transport.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::size_t> g_largest{0};  ///< bytes of the largest counted allocation

void note_allocation(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (size > g_largest.load(std::memory_order_relaxed)) {
      g_largest.store(size, std::memory_order_relaxed);
    }
  }
}

}  // namespace

void* operator new(std::size_t size) {
  note_allocation(size);
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  note_allocation(size);
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (size + static_cast<std::size_t>(align) - 1) &
                                   ~(static_cast<std::size_t>(align) - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace idem::sim {
namespace {

struct CountingGuard {
  CountingGuard() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_largest.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~CountingGuard() { g_counting.store(false, std::memory_order_relaxed); }
  std::uint64_t count() const { return g_allocations.load(std::memory_order_relaxed); }
  std::size_t largest() const { return g_largest.load(std::memory_order_relaxed); }
};

// A capture the size of the kernel's real lambdas (liveness token + payload
// pointer + ids) — must be dispatched without touching the heap.
struct FatCapture {
  std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5;
};

TEST(AllocationBudget, EventQueueDispatchIsAllocationFree) {
  EventQueue q;
  std::uint64_t sink = 0;
  // Warm-up: grow heap/slot capacity past anything the loop needs.
  for (int i = 0; i < 4096; ++i) q.push(i, [&sink, cap = FatCapture{}] { sink += cap.a; });
  while (!q.empty()) q.pop().fn();

  CountingGuard guard;
  Time now = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 100; ++i) {
      q.push(now + i, [&sink, cap = FatCapture{}] { sink += cap.b; });
    }
    while (!q.empty()) {
      auto ev = q.pop();
      now = ev.at;
      ev.fn();
    }
  }
  EXPECT_EQ(guard.count(), 0u) << "push->pop->fire must not allocate once warm";
  EXPECT_GT(sink, 0u);
}

TEST(AllocationBudget, TimerSetCancelIsAllocationFree) {
  Simulator sim(3);
  NetworkConfig cfg;
  SimNetwork net(sim, cfg);

  class TimerNode final : public Node {
   public:
    TimerNode(Simulator& sim, SimNetwork& net) : Node(sim, net, NodeId{1}, NodeKind::Replica) {}
    using Node::cancel_timer;
    using Node::set_timer;

   protected:
    void on_message(NodeId, const Payload&) override {}
  };

  TimerNode node(sim, net);
  std::uint64_t fired = 0;
  // Warm-up: grow queue capacity.
  for (int i = 0; i < 2048; ++i) {
    TimerId t = node.set_timer(kMillisecond, [&fired] { ++fired; });
    node.cancel_timer(t);
  }

  CountingGuard guard;
  for (int i = 0; i < 10'000; ++i) {
    TimerId t = node.set_timer(kMillisecond, [&fired] { ++fired; });
    node.cancel_timer(t);
  }
  EXPECT_EQ(guard.count(), 0u) << "Node timer arm/cancel must not allocate";
}

TEST(AllocationBudget, SimulatorStepIsAllocationFree) {
  Simulator sim(4);
  std::uint64_t ticks = 0;
  // Self-rescheduling event: exactly the steady-state dispatch pattern.
  struct Ticker {
    Simulator* sim;
    std::uint64_t* ticks;
    void operator()() {
      ++*ticks;
      if (*ticks < 20'000) sim->schedule_after(10, Ticker{sim, ticks});
    }
  };
  sim.schedule_after(10, Ticker{&sim, &ticks});
  sim.run_until(15 * 10);  // warm up storage
  ASSERT_GT(ticks, 0u);

  CountingGuard guard;
  sim.run_until(kSecond);
  EXPECT_EQ(guard.count(), 0u) << "Simulator::step dispatch must not allocate";
  EXPECT_EQ(ticks, 20'000u);
}

TEST(AllocationBudget, NetworkDeliveryWithReusedPayloadIsAllocationFree) {
  Simulator sim(5);
  NetworkConfig cfg;
  cfg.jitter_mean = 0;  // exponential() draw allocates nothing either way
  SimNetwork net(sim, cfg);

  struct FixedPayload final : Payload {
    std::size_t wire_size() const override { return 64; }
    std::string kind() const override { return "FIXED"; }
  };

  class EchoNode final : public Node {
   public:
    EchoNode(Simulator& sim, SimNetwork& net, NodeId id)
        : Node(sim, net, id, NodeKind::Replica) {}
    using Node::send;
    std::uint64_t received = 0;

   protected:
    void on_message(NodeId, const Payload&) override { ++received; }
  };

  EchoNode a(sim, net, NodeId{1});
  EchoNode b(sim, net, NodeId{2});
  PayloadPtr payload = std::make_shared<FixedPayload>();

  // Warm-up: grow the service ring and event storage.
  for (int i = 0; i < 512; ++i) a.send(NodeId{2}, payload);
  sim.run_until(kSecond);
  ASSERT_EQ(b.received, 512u);

  CountingGuard guard;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 64; ++i) a.send(NodeId{2}, payload);
    sim.run_for(kSecond);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "send -> schedule -> deliver -> service-queue -> handler must not allocate";
  EXPECT_EQ(b.received, 512u + 50u * 64u);
}

TEST(AllocationBudget, ObsHotPathIsAllocationFree) {
  // Trace recording, counter increments, and a reserved metrics sample are
  // the only obs operations that run inside the simulation; all memory is
  // acquired up front (ring at construction, samples via reserve_samples).
  obs::TraceRecorder recorder(1u << 12);
  obs::MetricsRegistry registry;
  std::uint64_t accepted = 0;
  registry.add_counter("accepted", [&accepted] { return static_cast<double>(accepted); });
  double queue = 0;
  registry.add_gauge("queue", [&queue] { return queue; });
  registry.reserve_samples(512);

  CountingGuard guard;
  RequestId id{ClientId{3}, OpNum{1}};
  for (int round = 0; round < 512; ++round) {
    for (int i = 0; i < 16; ++i) {
      recorder.record(round * 16 + i, obs::TraceEventKind::AcceptVerdict, /*node=*/0, id,
                      /*arg=*/1);
      accepted += 1;
      queue += 1;
    }
    registry.sample(static_cast<Time>(round) * kMillisecond);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "trace record + counter bump + reserved sample must not allocate";
  EXPECT_GT(recorder.overwritten(), 0u);  // the ring wrapped and kept going
  EXPECT_EQ(registry.rows(), 512u);
  EXPECT_EQ(registry.current("accepted"), 8192.0);
}

TEST(AllocationBudget, TcpSendAndFlushAreAllocationFree) {
  // A listener nobody's event loop serves: the test drains it by hand,
  // into a stack buffer, so only the sending transport runs.
  int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  class Silent final : public Endpoint {
    void deliver(NodeId, PayloadPtr) override {}
  } endpoint;
  transport.add_node(NodeId{1}, NodeKind::Replica, &endpoint);
  transport.set_remote(NodeId{2}, ntohs(addr.sin_port));

  // Distinct messages of one encoded size, made up front: the budget
  // covers the transport, not the protocol building its messages.
  constexpr int kRounds = 50;
  constexpr int kPerRound = 32;
  std::vector<PayloadPtr> messages;
  for (int i = 0; i < (kRounds + 2) * kPerRound; ++i) {
    messages.push_back(std::make_shared<const msg::Reject>(
        RequestId{ClientId{7}, OpNum{static_cast<std::uint64_t>(1'000'000 + i)}}));
  }
  int peer = -1;
  std::byte sink[64 * 1024];
  auto round = [&](int r) {
    for (int i = 0; i < kPerRound; ++i) {
      transport.send(NodeId{1}, NodeId{2}, messages[static_cast<std::size_t>(r * kPerRound + i)]);
    }
    loop.run_for(kMillisecond);  // the end-of-iteration flush
    while (::recv(peer, sink, sizeof(sink), MSG_DONTWAIT) > 0) {
    }
  };
  // Warm-up: dial, accept, and grow the frame and write buffers and both
  // of the loop's alternating deferred-task vectors.
  transport.send(NodeId{1}, NodeId{2}, messages[0]);
  loop.run_for(20 * kMillisecond);
  peer = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(peer, 0);
  round(0);
  round(1);

  std::uint64_t allocations = 0;
  {
    CountingGuard guard;
    for (int r = 2; r < kRounds + 2; ++r) round(r);
    allocations = guard.count();
  }
  EXPECT_EQ(allocations, 0u) << "frame build -> queue -> flush must not allocate once warm";
  EXPECT_EQ(transport.stats().messages_sent, 1u + (kRounds + 2) * kPerRound);
  EXPECT_EQ(transport.stats().dropped, 0u);
  ::close(peer);
  ::close(listener);
}

TEST(AllocationBudget, KvExecutionChargeIsAllocationFree) {
  // The charge reads the value's length in place.
  app::KvStore store;
  app::KvCommand put;
  put.op = app::KvOp::Put;
  put.key = "user000000000000000000042";  // longer than any small-string buffer
  put.value = std::string(100, 'v');
  const std::vector<std::byte> command = put.encode();

  Duration total = 0;
  std::uint64_t allocations = 0;
  {
    CountingGuard guard;
    for (int i = 0; i < 1000; ++i) total += store.execution_cost(command);
    allocations = guard.count();
  }
  EXPECT_EQ(allocations, 0u) << "a charge must not copy the key or the value";
  EXPECT_EQ(total, 1000 * (13 * kMicrosecond + 200));  // base + 2 ns per value byte
}

TEST(AllocationBudget, KvExecuteOfAnExistingKeyAllocatesOnlyItsResult) {
  app::KvStore store;
  for (int i = 0; i < 1000; ++i) {
    store.put("user" + std::to_string(1'000'000'000'000'000 + i), std::string(100, 'x'));
  }
  std::vector<std::vector<std::byte>> gets, puts;
  for (int i = 0; i < 1000; i += 10) {
    app::KvCommand cmd;
    cmd.key = "user" + std::to_string(1'000'000'000'000'000 + i);
    cmd.op = app::KvOp::Get;
    gets.push_back(cmd.encode());
    cmd.op = app::KvOp::Put;
    cmd.value = std::string(100, static_cast<char>('a' + i % 26));  // same size, in place
    puts.push_back(cmd.encode());
  }

  std::uint64_t get_allocations = 0;
  std::uint64_t put_allocations = 0;
  std::size_t result_bytes = 0;
  {
    CountingGuard guard;
    for (const auto& command : gets) result_bytes += store.execute(command).size();
    get_allocations = guard.count();
  }
  {
    CountingGuard guard;
    for (const auto& command : puts) result_bytes += store.execute(command).size();
    put_allocations = guard.count();
  }
  EXPECT_EQ(get_allocations, gets.size()) << "one allocation per Get: its result";
  EXPECT_EQ(put_allocations, puts.size()) << "one allocation per Put: its result";
  EXPECT_EQ(result_bytes, gets.size() * (3 + 100) + puts.size() * 2);
  EXPECT_EQ(store.get("user1000000000000010"), std::string(100, 'k'));
}

TEST(AllocationBudget, RestoreReservesNoMoreThanTheSnapshotHolds) {
  // A snapshot that claims 2^40 records but carries a few bytes: each
  // record takes at least two, so the restore reserves room for a handful
  // of records and then finds the snapshot truncated.
  ByteWriter w;
  w.varint(std::uint64_t{1} << 40);
  w.str("key");
  w.str("value");
  w.str("next");
  const std::vector<std::byte> snapshot = w.take();

  app::KvStore store;
  store.put("mine", "kept");
  std::size_t largest = 0;
  {
    CountingGuard guard;
    EXPECT_THROW(store.restore(snapshot), CodecError);
    largest = guard.largest();
  }
  EXPECT_LE(largest, 1024u) << "a restore sized its storage by the claimed count";
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.get("mine"), "kept");
}

TEST(AllocationBudget, VoteCountingIsAllocationFree) {
  consensus::VoteSet votes;
  consensus::QuorumTracker<RequestId> tracker;
  const RequestId id{ClientId{1}, OpNum{1}};
  tracker.vote(id, ReplicaId{0});  // warm: the id's entry exists

  std::uint64_t counted = 0;
  std::uint64_t allocations = 0;
  {
    CountingGuard guard;
    for (std::uint32_t round = 0; round < 1000; ++round) {
      for (std::uint32_t voter = 0; voter < 5; ++voter) votes.insert(voter);
      votes.insert(round % 5);  // a repeat vote counts once
      counted += votes.size();
      votes.clear();
      counted += tracker.vote(id, ReplicaId{round % 3});
    }
    allocations = guard.count();
  }
  EXPECT_EQ(allocations, 0u) << "counting votes must not allocate once warm";
  EXPECT_EQ(counted, 1000u * 5 + 1 + 2 + 998u * 3);
  EXPECT_TRUE(votes.empty());
}

}  // namespace
}  // namespace idem::sim
