// Proves the kernel's allocation budget (DESIGN.md "Kernel performance
// model"): once warm, the steady-state dispatch path — EventQueue push ->
// pop -> fire, Simulator::step, Node timer set/cancel, and network message
// delivery with a reused payload — performs zero heap allocations.
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

#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void note_allocation() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void* operator new(std::size_t size) {
  note_allocation();
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  note_allocation();
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
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~CountingGuard() { g_counting.store(false, std::memory_order_relaxed); }
  std::uint64_t count() const { return g_allocations.load(std::memory_order_relaxed); }
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

}  // namespace
}  // namespace idem::sim
