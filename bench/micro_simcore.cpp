// Simulation-kernel microbenchmark: tracks the wall-clock throughput of the
// discrete-event core from PR to PR.
//
// Three sections:
//   1. queue: raw EventQueue push -> pop -> fire dispatch rate
//   2. timers: EventQueue push + cancel rate (the Node timer pattern:
//      protocols arm a timeout per request and cancel it on the reply)
//   3. fig6: end-to-end wall-clock of a fixed fig6-style 4x-overload run
//      (IDEM, 200 closed-loop clients vs. a 1x baseline of 50)
//
// Emits machine-readable JSON (default ./BENCH_simcore.json, override with
// IDEM_SIMCORE_JSON) so results can be compared across commits; see
// EXPERIMENTS.md. IDEM_SIMCORE_SMOKE=1 shrinks everything for CI smoke runs.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "sim/event_queue.hpp"

using namespace idem;

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool smoke() { return std::getenv("IDEM_SIMCORE_SMOKE") != nullptr; }

/// IDEM_SIMCORE_SECTIONS: comma-separated subset of queue,timers,fig6
/// (default: all). Handy for profiling one section in isolation.
bool section_enabled(const char* name) {
  const char* sections = std::getenv("IDEM_SIMCORE_SECTIONS");
  if (sections == nullptr || *sections == '\0') return true;
  return std::string(sections).find(name) != std::string::npos;
}

/// Best-of-`reps` measurement (min wall time) to damp scheduler noise.
template <typename F>
double best_rate(int reps, std::uint64_t ops, F&& body) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    auto start = Clock::now();
    body();
    double rate = static_cast<double>(ops) / elapsed_seconds(start);
    if (rate > best) best = rate;
  }
  return best;
}

/// Section 1: push/pop/fire dispatch rate with node-sized callbacks.
double bench_queue_dispatch(std::uint64_t total) {
  const std::uint64_t batch = 1024;
  return best_rate(3, total, [&] {
    sim::EventQueue q;
    Rng rng(42, 7);
    std::uint64_t fired = 0;
    Time now = 0;
    std::uint64_t remaining = total;
    while (remaining > 0) {
      std::uint64_t n = remaining < batch ? remaining : batch;
      for (std::uint64_t i = 0; i < n; ++i) {
        // Delay pattern similar to the simulator's mix: mostly short
        // network/CPU delays, occasionally a long protocol timeout.
        Duration delay = static_cast<Duration>(rng.uniform_int(1, 400 * kMicrosecond));
        if ((i & 63) == 0) delay += 50 * kMillisecond;
        q.push(now + delay, [&fired] { ++fired; });
      }
      for (std::uint64_t i = 0; i < n; ++i) {
        auto ev = q.pop();
        now = ev.at;
        ev.fn();
      }
      remaining -= n;
    }
    if (fired != total) std::abort();  // defeat over-optimization
  });
}

/// Section 2: timer arm/cancel rate (one "op" = one push + one cancel).
double bench_timer_set_cancel(std::uint64_t total) {
  const std::uint64_t batch = 1024;
  return best_rate(3, total, [&] {
    sim::EventQueue q;
    Rng rng(43, 11);
    std::vector<sim::EventId> ids(batch);
    std::uint64_t cancelled = 0;
    std::uint64_t remaining = total;
    Time now = 0;
    while (remaining > 0) {
      std::uint64_t n = remaining < batch ? remaining : batch;
      for (std::uint64_t i = 0; i < n; ++i) {
        Duration delay = static_cast<Duration>(rng.uniform_int(kMillisecond, 100 * kMillisecond));
        ids[i] = q.push(now + delay, [] {});
      }
      // Cancel in a shuffled-ish order (reverse) so the heap does real work.
      for (std::uint64_t i = n; i-- > 0;) {
        if (q.cancel(ids[i])) ++cancelled;
      }
      now += kMillisecond;
      remaining -= n;
    }
    if (cancelled != total) std::abort();
  });
}

struct Fig6Result {
  double wall_s = 0;
  double events = 0;
  double events_per_sec = 0;
  double reply_kops = 0;
};

/// One fig6-style 4x-overload run (IDEM, 200 clients). With `traced` it
/// records the full request-lifecycle trace; the wall-clock delta against
/// the untraced run is the tracer's overhead (the simulated trajectory
/// itself must be identical — see obs_test).
Fig6Result run_fig6_once(Duration warmup, Duration measure, bool traced) {
  harness::ClusterConfig config;
  config.protocol = harness::Protocol::Idem;
  config.clients = 200;  // 4x the fig6 1x-baseline of 50 clients
  config.reject_threshold = 50;
  config.seed = 1;
  config.obs.trace = traced;

  harness::LoadConfig driver;
  driver.warmup = warmup;
  driver.measure = measure;

  Fig6Result out;
  auto start = Clock::now();
  harness::Cluster cluster(config);
  harness::RunMetrics metrics = harness::drive(cluster, driver);
  out.wall_s = elapsed_seconds(start);
  out.events = static_cast<double>(cluster.simulator().events_executed());
  out.events_per_sec = out.events / out.wall_s;
  out.reply_kops = metrics.reply_throughput() / 1000.0;
  return out;
}

/// Section 3: best-of-`reps` untraced and traced fig6 runs, interleaved
/// (untraced, traced, untraced, ...) so background-load bursts hit both
/// variants alike — a single run's wall clock is far noisier than the
/// tracer cost being measured.
void bench_fig6_overload(Duration warmup, Duration measure, int reps, Fig6Result& untraced,
                         Fig6Result& traced) {
  for (int rep = 0; rep < reps; ++rep) {
    Fig6Result plain = run_fig6_once(warmup, measure, false);
    if (rep == 0 || plain.wall_s < untraced.wall_s) untraced = plain;
    Fig6Result rec = run_fig6_once(warmup, measure, true);
    if (rep == 0 || rec.wall_s < traced.wall_s) traced = rec;
  }
}

}  // namespace

int main() {
  const bool quick = smoke();
  const std::uint64_t queue_ops = quick ? 200'000 : 4'000'000;
  const std::uint64_t timer_ops = quick ? 200'000 : 2'000'000;
  const Duration warmup = quick ? 100 * kMillisecond : 500 * kMillisecond;
  const Duration measure = quick ? 200 * kMillisecond : 2 * kSecond;

  std::printf("=== sim-core microbenchmark (%s) ===\n", quick ? "smoke" : "full");

  double dispatch = 0;
  if (section_enabled("queue")) {
    dispatch = bench_queue_dispatch(queue_ops);
    std::printf("queue dispatch      : %10.2f M events/s  (%llu events)\n", dispatch / 1e6,
                static_cast<unsigned long long>(queue_ops));
  }

  double timers = 0;
  if (section_enabled("timers")) {
    timers = bench_timer_set_cancel(timer_ops);
    std::printf("timer set+cancel    : %10.2f M pairs/s   (%llu pairs)\n", timers / 1e6,
                static_cast<unsigned long long>(timer_ops));
  }

  Fig6Result fig6;
  Fig6Result fig6_traced;
  double trace_overhead_pct = 0;
  if (section_enabled("fig6")) {
    bench_fig6_overload(warmup, measure, /*reps=*/quick ? 3 : 5, fig6, fig6_traced);
    std::printf("fig6 4x overload    : %10.2f M events/s  (%.0f events, %.3f s wall, %.1f kreq/s)\n",
                fig6.events_per_sec / 1e6, fig6.events, fig6.wall_s, fig6.reply_kops);
    trace_overhead_pct = (fig6_traced.wall_s - fig6.wall_s) / fig6.wall_s * 100.0;
    std::printf("fig6 traced         : %10.2f M events/s  (%.3f s wall, %+.1f%% overhead)\n",
                fig6_traced.events_per_sec / 1e6, fig6_traced.wall_s, trace_overhead_pct);
    if (fig6_traced.events != fig6.events) {
      std::fprintf(stderr, "WARNING: traced run diverged (%.0f vs %.0f sim events)\n",
                   fig6_traced.events, fig6.events);
      return 1;
    }
  }

  const char* path = std::getenv("IDEM_SIMCORE_JSON");
  if (path == nullptr || *path == '\0') path = "BENCH_simcore.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"micro_simcore\",\n"
               "  \"mode\": \"%s\",\n"
               "  \"queue_dispatch_events_per_sec\": %.0f,\n"
               "  \"timer_set_cancel_pairs_per_sec\": %.0f,\n"
               "  \"fig6_overload\": {\n"
               "    \"clients\": 200,\n"
               "    \"sim_events\": %.0f,\n"
               "    \"wall_seconds\": %.4f,\n"
               "    \"events_per_sec\": %.0f,\n"
               "    \"reply_kops\": %.2f\n"
               "  },\n"
               "  \"fig6_traced\": {\n"
               "    \"wall_seconds\": %.4f,\n"
               "    \"events_per_sec\": %.0f,\n"
               "    \"trace_overhead_pct\": %.1f\n"
               "  }\n"
               "}\n",
               quick ? "smoke" : "full", dispatch, timers, fig6.events, fig6.wall_s,
               fig6.events_per_sec, fig6.reply_kops, fig6_traced.wall_s,
               fig6_traced.events_per_sec, trace_overhead_pct);
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return 0;
}
