// Shared helpers for the experiment binaries.
//
// Environment knobs (all optional):
//   IDEM_BENCH_SECONDS      measurement seconds per data point (default 5)
//   IDEM_BENCH_WARMUP       warm-up seconds per data point (default 1)
//   IDEM_BENCH_RUNS         independent runs (seeds) averaged per point (default 1)
//   IDEM_BENCH_CSV          when set, also print CSV after each table
//   IDEM_BENCH_TRACE_OUT    record request lifecycles and write a Chrome
//                           trace JSON per load point; "-c<clients>" (and
//                           "-r<run>" when IDEM_BENCH_RUNS > 1) is inserted
//                           before the extension, so a sweep keeps every
//                           point instead of the last one overwriting
//   IDEM_BENCH_METRICS_OUT  sample per-replica metrics every 100 ms and
//                           write JSONL per load point (same suffixing)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/load.hpp"
#include "harness/metrics.hpp"
#include "harness/table.hpp"
#include "obs/chrome_trace.hpp"

namespace idem::bench {

inline double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atof(value);
}

inline int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atoi(value);
}

inline Duration measure_duration() {
  return static_cast<Duration>(env_double("IDEM_BENCH_SECONDS", 5.0) * kSecond);
}

inline Duration warmup_duration() {
  return static_cast<Duration>(env_double("IDEM_BENCH_WARMUP", 1.0) * kSecond);
}

inline int bench_runs() { return env_int("IDEM_BENCH_RUNS", 1); }

inline bool csv_enabled() { return std::getenv("IDEM_BENCH_CSV") != nullptr; }

inline const char* env_path(const char* name) {
  const char* value = std::getenv(name);
  return (value != nullptr && *value != '\0') ? value : nullptr;
}

/// Applies the IDEM_BENCH_TRACE_OUT / IDEM_BENCH_METRICS_OUT knobs.
inline void apply_obs_env(harness::ClusterConfig& config) {
  if (env_path("IDEM_BENCH_TRACE_OUT") != nullptr) config.obs.trace = true;
  if (env_path("IDEM_BENCH_METRICS_OUT") != nullptr) {
    config.obs.metrics_interval = 100 * kMillisecond;
  }
}

/// Inserts `suffix` before `path`'s extension: ("sweep.json", "-c8") ->
/// "sweep-c8.json"; extensionless paths just get the suffix appended.
inline std::string suffixed_path(const char* path, const std::string& suffix) {
  std::string p = path;
  std::size_t dot = p.rfind('.');
  std::size_t slash = p.rfind('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return p + suffix;
  }
  return p.substr(0, dot) + suffix + p.substr(dot);
}

/// Writes the obs sinks of a finished run to the env-selected paths,
/// `suffix` distinguishing load points so a sweep keeps all of them.
inline void export_obs_env(harness::Cluster& cluster, const std::string& suffix = "") {
  if (const char* path = env_path("IDEM_BENCH_TRACE_OUT");
      path != nullptr && cluster.trace() != nullptr) {
    if (std::FILE* f = std::fopen(suffixed_path(path, suffix).c_str(), "w")) {
      obs::write_chrome_trace(f, cluster.trace()->snapshot());
      std::fclose(f);
    }
  }
  if (const char* path = env_path("IDEM_BENCH_METRICS_OUT");
      path != nullptr && cluster.metrics() != nullptr) {
    if (std::FILE* f = std::fopen(suffixed_path(path, suffix).c_str(), "w")) {
      cluster.metrics()->write_jsonl(f);
      std::fclose(f);
    }
  }
}

/// Metrics of one load point averaged over `runs` independent seeds.
struct LoadPoint {
  std::size_t clients = 0;
  double reply_kops = 0;        ///< successful requests per second / 1000
  double reject_kops = 0;       ///< rejections per second / 1000
  double reply_ms = 0;          ///< mean reply latency
  double reply_stddev_ms = 0;
  double reply_p50_ms = 0;
  double reply_p90_ms = 0;
  double reply_p99_ms = 0;
  double reply_p999_ms = 0;
  double reject_ms = 0;         ///< mean reject latency
  double reject_stddev_ms = 0;
  double timeouts_per_s = 0;
  double deadline_miss_pct = 0;  ///< % of deadline-carrying replies past budget
};

/// Runs one steady-state load point: `clients` closed-loop YCSB clients
/// against a fresh cluster; repeated for `runs` seeds and averaged.
inline LoadPoint run_load_point(harness::ClusterConfig base, std::size_t clients,
                                const harness::LoadConfig& load, int runs = 0) {
  if (runs <= 0) runs = bench_runs();
  LoadPoint point;
  point.clients = clients;
  for (int run = 0; run < runs; ++run) {
    harness::ClusterConfig config = base;
    config.clients = clients;
    config.seed = base.seed + static_cast<std::uint64_t>(run) * 7919;
    apply_obs_env(config);
    harness::Cluster cluster(config);
    harness::RunMetrics metrics = harness::drive(cluster, load);
    std::string suffix = "-c" + std::to_string(clients);
    if (runs > 1) suffix += "-r" + std::to_string(run);
    export_obs_env(cluster, suffix);

    point.reply_kops += metrics.reply_throughput() / 1000.0;
    point.reject_kops += metrics.reject_throughput() / 1000.0;
    point.reply_ms += metrics.reply_latency_ms();
    point.reply_stddev_ms += metrics.reply_latency_stddev_ms();
    point.reply_p50_ms += metrics.reply_p50_ms();
    point.reply_p90_ms += metrics.reply_p90_ms();
    point.reply_p99_ms += metrics.reply_p99_ms();
    point.reply_p999_ms += metrics.reply_p999_ms();
    point.reject_ms += metrics.reject_latency_ms();
    point.reject_stddev_ms += metrics.reject_latency_stddev_ms();
    point.timeouts_per_s += static_cast<double>(metrics.timeouts) / to_sec(metrics.measured);
    point.deadline_miss_pct += 100.0 * metrics.deadline_miss_rate();
  }
  const double inv = 1.0 / runs;
  point.reply_kops *= inv;
  point.reject_kops *= inv;
  point.reply_ms *= inv;
  point.reply_stddev_ms *= inv;
  point.reply_p50_ms *= inv;
  point.reply_p90_ms *= inv;
  point.reply_p99_ms *= inv;
  point.reply_p999_ms *= inv;
  point.reject_ms *= inv;
  point.reject_stddev_ms *= inv;
  point.timeouts_per_s *= inv;
  point.deadline_miss_pct *= inv;
  return point;
}

inline void print_table(const harness::Table& table);

/// Runs `clients` closed-loop clients for `duration` and crashes one
/// replica at `crash_at` (the current leader when `crash_leader`, else a
/// follower). Returns the full-run metrics; the time series cover the
/// whole run, which is what the crash figures plot.
inline harness::RunMetrics run_crash_timeline(harness::ClusterConfig base, std::size_t clients,
                                              Duration duration, Duration crash_at,
                                              bool crash_leader) {
  base.clients = clients;
  // Paxos clients fail over one replica per retry interval; the crash
  // figures keep the 1 s they were measured with (Figure 3's ~4 s outage).
  if (base.protocol == harness::Protocol::Paxos || base.protocol == harness::Protocol::PaxosLBR) {
    base.idem_client.retry_interval = kSecond;
  }
  harness::Cluster cluster(base);
  harness::LoadConfig load;
  load.measure = duration;
  cluster.apply({sim::Fault::crash(
      crash_at, crash_leader ? sim::Fault::kLeader : sim::Fault::kFollower)});
  return harness::drive(cluster, load);
}

/// Prints a reply/reject timeline aggregated into `bucket`-sized rows.
inline void print_timeline(const harness::RunMetrics& metrics, Duration bucket,
                           Time crash_at = -1) {
  harness::Table table({"t[s]", "reply[kreq/s]", "latency[ms]", "reject[kreq/s]",
                        "rej-latency[ms]", "event"});
  auto replies = metrics.reply_series.rows();
  auto rejects = metrics.reject_series.rows();
  Duration window = metrics.reply_series.window();
  std::size_t per_bucket = static_cast<std::size_t>(bucket / window);
  if (per_bucket == 0) per_bucket = 1;
  std::size_t rows = std::max(replies.size(), rejects.size());
  for (std::size_t start = 0; start < rows; start += per_bucket) {
    std::uint64_t reply_count = 0, reject_count = 0;
    double reply_lat = 0, reject_lat = 0;
    for (std::size_t i = start; i < std::min(start + per_bucket, rows); ++i) {
      if (i < replies.size()) {
        reply_count += replies[i].count;
        reply_lat += replies[i].value_sum;
      }
      if (i < rejects.size()) {
        reject_count += rejects[i].count;
        reject_lat += rejects[i].value_sum;
      }
    }
    Time t0 = static_cast<Time>(start) * window;
    bool crash_here = crash_at >= 0 && crash_at >= t0 && crash_at < t0 + static_cast<Time>(per_bucket) * window;
    table.add_row({harness::Table::fmt(to_sec(t0), 1),
                   harness::Table::fmt(reply_count / to_sec(bucket) / 1000.0),
                   harness::Table::fmt(reply_count ? reply_lat / reply_count : 0.0, 3),
                   harness::Table::fmt(reject_count / to_sec(bucket) / 1000.0),
                   harness::Table::fmt(reject_count ? reject_lat / reject_count : 0.0, 3),
                   crash_here ? "<- crash" : ""});
  }
  print_table(table);
}

inline void print_table(const harness::Table& table) {
  table.print();
  if (csv_enabled()) {
    std::printf("\ncsv:\n");
    table.print_csv();
  }
  std::printf("\n");
}

}  // namespace idem::bench
