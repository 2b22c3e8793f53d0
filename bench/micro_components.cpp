// Google-benchmark micro-benchmarks for the building blocks: codec,
// histogram, acceptance test, KV store, zipfian generator, event queue,
// and the simulated network hot path.
#include <benchmark/benchmark.h>

#include "app/kv_store.hpp"
#include "app/ycsb.hpp"
#include "common/codec.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "consensus/messages.hpp"
#include "idem/acceptance.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace idem;

void BM_CodecEncodeRequest(benchmark::State& state) {
  std::vector<std::byte> command(static_cast<std::size_t>(state.range(0)), std::byte{'x'});
  msg::Request request(RequestId{ClientId{42}, OpNum{7}}, command);
  for (auto _ : state) {
    benchmark::DoNotOptimize(request.encode());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CodecEncodeRequest)->Arg(100)->Arg(1000)->Arg(10000);

void BM_CodecDecodeRequest(benchmark::State& state) {
  std::vector<std::byte> command(static_cast<std::size_t>(state.range(0)), std::byte{'x'});
  msg::Request request(RequestId{ClientId{42}, OpNum{7}}, command);
  auto encoded = request.encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(msg::decode(encoded));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CodecDecodeRequest)->Arg(100)->Arg(1000)->Arg(10000);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram histogram;
  Rng rng(1, 1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    histogram.record(static_cast<Duration>(1000 + (i++ % 100000)));
  }
  benchmark::DoNotOptimize(histogram.count());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramQuantile(benchmark::State& state) {
  Histogram histogram;
  Rng rng(1, 1);
  for (int i = 0; i < 100000; ++i) {
    histogram.record(static_cast<Duration>(rng.exponential(1e6)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram.quantile(0.99));
  }
}
BENCHMARK(BM_HistogramQuantile);

void BM_AcceptanceTestAqm(benchmark::State& state) {
  core::AqmPrioritized::Params params;
  params.group_count = 4;
  core::AqmPrioritized test(params);
  core::AcceptanceContext ctx;
  ctx.reject_threshold = 50;
  ctx.active_requests = static_cast<std::size_t>(state.range(0));
  std::uint64_t onr = 0;
  std::span<const std::byte> no_command;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        test.accept(RequestId{ClientId{onr % 200}, OpNum{onr}}, no_command, ctx));
    ++onr;
  }
}
BENCHMARK(BM_AcceptanceTestAqm)->Arg(10)->Arg(40)->Arg(49);

/// YCSB-A against a store preloaded with `range(0)` records.
void BM_KvStoreExecute(benchmark::State& state) {
  app::KvStore store;
  Rng rng(3, 3);
  app::YcsbConfig config;
  config.record_count = static_cast<std::uint64_t>(state.range(0));
  app::YcsbWorkload workload(config, rng);
  store.restore(app::YcsbWorkload::load_image(config));
  std::vector<std::vector<std::byte>> ops;
  for (int i = 0; i < 1024; ++i) ops.push_back(workload.next_operation().encode());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.execute(ops[i++ % ops.size()]));
  }
}
BENCHMARK(BM_KvStoreExecute)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_KvStoreSnapshot(benchmark::State& state) {
  app::KvStore store;
  for (int i = 0; i < state.range(0); ++i) {
    store.put("key" + std::to_string(i), std::string(100, 'v'));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.snapshot());
  }
}
BENCHMARK(BM_KvStoreSnapshot)->Arg(1000)->Arg(10000);

void BM_ZipfianNext(benchmark::State& state) {
  Rng rng(4, 4);
  app::ZipfianGenerator zipf(1'000'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.next(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue queue;
  Rng rng(5, 5);
  Time now = 0;
  // Keep a steady-state queue of 10k events.
  for (int i = 0; i < 10000; ++i) {
    queue.push(now + rng.uniform_int(1, 1000000), [] {});
  }
  for (auto _ : state) {
    auto popped = queue.pop();
    now = popped.at;
    queue.push(now + rng.uniform_int(1, 1000000), [] {});
  }
}
BENCHMARK(BM_EventQueuePushPop);

class NullEndpoint final : public sim::Endpoint {
 public:
  void deliver(sim::NodeId, sim::PayloadPtr) override {}
};

void BM_NetworkSend(benchmark::State& state) {
  sim::Simulator sim(1);
  sim::SimNetwork net(sim, {});
  NullEndpoint a, b;
  net.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);
  net.add_node(sim::NodeId{2}, sim::NodeKind::Replica, &b);
  auto payload = std::make_shared<msg::Reject>(RequestId{ClientId{1}, OpNum{1}});
  for (auto _ : state) {
    net.send(sim::NodeId{1}, sim::NodeId{2}, payload);
    if (sim.pending_events() > 4096) sim.run_until(sim.now() + kSecond);
  }
}
BENCHMARK(BM_NetworkSend);

}  // namespace

BENCHMARK_MAIN();
