// Figure 6, real mode: the increasing-load sweep of fig6_increasing_load
// run against an actual 3-replica TCP cluster (one event-loop thread per
// replica, loopback sockets, wall-clock time) instead of the simulator.
//
// Expected shape (EXPERIMENTS.md "Sim vs real"): median latency stays
// flat below saturation, and once the offered load crosses the reject
// threshold r the rejection rate engages instead of the latency
// exploding — the same qualitative plateau the simulated Figure 6 shows,
// at whatever absolute throughput this machine's loopback stack delivers.
//
// Emits machine-readable JSON (default ./BENCH_real.json, override with
// IDEM_REAL_JSON) so real-mode results can be compared across commits.
//
// Environment knobs: IDEM_BENCH_SECONDS (default 2), IDEM_BENCH_WARMUP
// (default 0.5), IDEM_REAL_RT (reject threshold, default 8),
// IDEM_REAL_CLIENTS (comma list overriding the sweep), IDEM_REAL_LIVE=1
// (run with the admin endpoint on and GET /metrics every 100 ms through
// each load point, to measure what scraping costs against a plain run).
// The measured and warm-up spans can also be set on the command line
// (--measure-seconds S, --warmup S), which wins over the environment, and
// --records N sets the YCSB records preloaded on every replica (default
// 1000).
//
// Each point also reports the leader loop's busy time per resolved
// operation over the measured window (RealCluster::loop_stats): the
// replica's own work, which thread CPU no longer shows now that loops
// poll before they sleep. Busy time includes the loop's bookkeeping
// between empty spin polls, so it reads high at light load (one client).
// It is informational; nothing gates on it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness/table.hpp"
#include "real/cluster.hpp"
#include "rpc/http_admin.hpp"
#include "shard/real_clients.hpp"

using namespace idem;

namespace {

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atof(value);
}

std::vector<std::size_t> client_sweep() {
  std::vector<std::size_t> counts;
  if (const char* list = std::getenv("IDEM_REAL_CLIENTS"); list != nullptr && *list != '\0') {
    std::string text = list;
    for (std::size_t start = 0; start < text.size();) {
      std::size_t comma = text.find(',', start);
      if (comma == std::string::npos) comma = text.size();
      counts.push_back(std::strtoul(text.substr(start, comma - start).c_str(), nullptr, 10));
      start = comma + 1;
    }
    return counts;
  }
  return {1, 2, 4, 8, 16, 32, 64};
}

struct RealPoint {
  std::size_t clients = 0;
  double reply_kops = 0;
  double reject_kops = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
  double reject_p99_ms = 0;  ///< reject-notification tail (0 when no rejects)
  double leader_busy_us_per_op = 0;  ///< leader loop busy time per reply or reject
};

}  // namespace

int main(int argc, char** argv) {
  double warmup_sec = env_double("IDEM_BENCH_WARMUP", 0.5);
  double measure_sec = env_double("IDEM_BENCH_SECONDS", 2.0);
  std::uint64_t records = 1000;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (!std::strcmp(argv[i], "--measure-seconds")) {
      if (const char* v = value()) measure_sec = std::atof(v);
    } else if (!std::strcmp(argv[i], "--warmup")) {
      if (const char* v = value()) warmup_sec = std::atof(v);
    } else if (!std::strcmp(argv[i], "--records")) {
      if (const char* v = value()) records = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--measure-seconds S] [--warmup S] [--records N]\n"
                   "(env: IDEM_BENCH_SECONDS, IDEM_BENCH_WARMUP, IDEM_REAL_RT,"
                   " IDEM_REAL_CLIENTS, IDEM_REAL_LIVE, IDEM_REAL_JSON)\n",
                   argv[0]);
      return 2;
    }
  }
  const auto warmup = static_cast<Duration>(warmup_sec * kSecond);
  const auto measure = static_cast<Duration>(measure_sec * kSecond);
  const auto reject_threshold =
      static_cast<std::size_t>(env_double("IDEM_REAL_RT", 8));
  const bool live = env_double("IDEM_REAL_LIVE", 0) != 0;
  const std::vector<std::size_t> client_counts = client_sweep();
  std::size_t max_clients = 0;
  for (std::size_t c : client_counts) max_clients = std::max(max_clients, c);

  std::printf("=== Figure 6 (real mode): IDEM over loopback TCP under increasing load ===\n");
  std::printf("(3 replicas, one event-loop thread each; closed-loop YCSB-A clients; r=%zu%s)\n\n",
              reject_threshold, live ? "; /metrics scraped every 100 ms" : "");

  harness::Table table({"clients", "throughput[kreq/s]", "latency[ms]", "p50[ms]", "p90[ms]",
                        "p99[ms]", "rejects[kreq/s]", "reject p99[ms]",
                        "leader busy[us/op]"});
  std::vector<RealPoint> points;
  for (std::size_t clients : client_counts) {
    real::RealClusterConfig config;
    config.n = 3;
    config.f = 1;
    config.reject_threshold = reject_threshold;
    config.seed = 1 + clients;
    config.expected_clients = max_clients;
    config.preload = true;
    config.workload.record_count = records;
    config.admin = live;
    real::RealCluster cluster(config);
    cluster.start();
    std::atomic<bool> loaded{false};
    std::thread scraper([&] {
      while (live && !loaded.load()) {
        (void)rpc::http_exchange(cluster.admin_port(), "GET /metrics HTTP/1.0\r\n\r\n");
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });

    harness::LoadConfig load;
    load.warmup = warmup;
    load.measure = measure;
    load.workload = config.workload;
    shard::RealClients driven(shard::clients_of(cluster, clients, 1 + clients));
    // The leader's loop counters at the window's edges: one read when the
    // warm-up ends, from the clients' loop, and one after the run.
    const std::size_t leader = cluster.leader_index();
    rpc::LoopStats leader_open;
    if (leader < cluster.n()) {
      driven.loop().schedule_after(warmup, [&] { leader_open = cluster.loop_stats(leader); });
    }
    const harness::RunMetrics stats = driven.drive(load);
    const rpc::LoopStats leader_close =
        leader < cluster.n() ? cluster.loop_stats(leader) : rpc::LoopStats{};
    loaded.store(true);
    scraper.join();
    cluster.shutdown();

    RealPoint point;
    point.clients = clients;
    point.reply_kops = stats.reply_throughput() / 1000.0;
    point.reject_kops = stats.reject_throughput() / 1000.0;
    point.p50_ms = to_ms(stats.reply_latency.p50());
    point.p90_ms = to_ms(stats.reply_latency.p90());
    point.p99_ms = to_ms(stats.reply_latency.p99());
    point.mean_ms = stats.reply_latency.mean() / static_cast<double>(kMillisecond);
    if (stats.rejects > 0) point.reject_p99_ms = to_ms(stats.reject_latency.p99());
    if (const std::uint64_t resolved = stats.replies + stats.rejects; resolved > 0) {
      point.leader_busy_us_per_op =
          static_cast<double>(leader_close.busy_ns - leader_open.busy_ns) / 1e3 /
          static_cast<double>(resolved);
    }
    points.push_back(point);

    table.add_row({harness::Table::fmt(std::uint64_t(clients)),
                   harness::Table::fmt(point.reply_kops), harness::Table::fmt(point.mean_ms, 3),
                   harness::Table::fmt(point.p50_ms, 3), harness::Table::fmt(point.p90_ms, 3),
                   harness::Table::fmt(point.p99_ms, 3),
                   harness::Table::fmt(point.reject_kops),
                   harness::Table::fmt(point.reject_p99_ms, 3),
                   harness::Table::fmt(point.leader_busy_us_per_op, 2)});
  }
  table.print();

  // Shape assertions — machine-independent (all ratios, no absolute
  // rates), so they hold on any host where the relative Figure 6 shape
  // survives. Three ways overload handling can rot, each caught here:
  // queueing delay leaking into latency (p50 blow-up), proactive
  // rejection never engaging past the knee, and the goodput collapse
  // (served throughput falling off a cliff once rejects start).
  bool shape_ok = true;
  auto check = [&shape_ok](bool ok, const char* what) {
    std::printf(" - %s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) shape_ok = false;
  };
  double peak_kops = 0;
  double floor_p50 = points.front().p50_ms;
  double worst_p50 = 0;
  double min_over_kops = -1;
  bool rejects_past_knee = false;
  for (const RealPoint& p : points) {
    peak_kops = std::max(peak_kops, p.reply_kops);
    worst_p50 = std::max(worst_p50, p.p50_ms);
    if (p.clients > reject_threshold) {
      if (p.reject_kops > 0) rejects_past_knee = true;
      if (min_over_kops < 0 || p.reply_kops < min_over_kops) min_over_kops = p.reply_kops;
    }
  }
  std::printf("\nshape checks (r = %zu):\n", reject_threshold);
  check(worst_p50 <= 5.0 * floor_p50,
        "p50 stays flat through overload (worst <= 5x the 1-client floor)");
  if (min_over_kops >= 0) {
    check(rejects_past_knee, "rejections engage once concurrent clients exceed r");
    check(min_over_kops >= 0.5 * peak_kops,
          "goodput holds past the knee (every overloaded point >= 50% of peak)");
  }
  if (!shape_ok) {
    std::fprintf(stderr, "fig6_real: shape check failed\n");
    return 1;
  }

  const char* path = std::getenv("IDEM_REAL_JSON");
  if (path == nullptr || *path == '\0') path = "BENCH_real.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"fig6_real\",\n"
               "  \"n\": 3,\n"
               "  \"reject_threshold\": %zu,\n"
               "  \"measure_seconds\": %.2f,\n"
               "  \"points\": [\n",
               reject_threshold, to_sec(measure));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const RealPoint& p = points[i];
    std::fprintf(f,
                 "    {\"clients\": %zu, \"reply_kops\": %.3f, \"reject_kops\": %.3f,"
                 " \"mean_ms\": %.4f, \"p50_ms\": %.4f, \"p90_ms\": %.4f, \"p99_ms\": %.4f,"
                 " \"reject_p99_ms\": %.4f, \"leader_busy_us_per_op\": %.2f}%s\n",
                 p.clients, p.reply_kops, p.reject_kops, p.mean_ms, p.p50_ms, p.p90_ms,
                 p.p99_ms, p.reject_p99_ms, p.leader_busy_us_per_op,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return 0;
}
