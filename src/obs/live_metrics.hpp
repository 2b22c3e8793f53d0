// Windowed live view of registry reads (real mode's /metrics and /stats).
//
// Each scrape hands snapshot() one merged MetricsReading, which it windows
// against the previous scrape's: counter rate = delta / elapsed, latency
// quantiles from Histogram::delta of the bucket states. The first scrape
// windows from construction. A LiveMetrics belongs to the thread that
// scrapes (the admin loop); it takes no locks.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/time.hpp"
#include "obs/metrics_registry.hpp"

namespace idem::obs {

/// One scrape's view: totals plus rates/quantiles over the window since
/// the previous scrape. Bracketed labels in series names,
/// "rejects[group=0,reason=x]", render as `{group="0",reason="x"}`.
struct LiveSnapshot {
  double window_seconds = 0;

  struct Counter {
    std::string name;
    std::uint64_t total = 0;      ///< cumulative since boot
    std::uint64_t window = 0;     ///< increments in this window
    double rate = 0;              ///< window / window_seconds
  };
  struct Latency {
    std::string name;
    std::uint64_t total_count = 0;
    std::uint64_t window_count = 0;
    double rate = 0;
    Duration p50 = 0;             ///< windowed quantiles (ns)
    Duration p99 = 0;
    Duration p999 = 0;
    double mean_ns = 0;
  };

  std::vector<Counter> counters;
  std::vector<MetricsReading::Scalar> gauges;  ///< point-in-time values, as read
  std::vector<Latency> latencies;
};

class LiveMetrics {
 public:
  LiveMetrics();

  /// Windows `reading` against the previous call's reading.
  LiveSnapshot snapshot(MetricsReading reading);

  /// Prometheus text exposition (text/plain; version=0.0.4). Counters
  /// render as `idem_<name>_total` plus `idem_<name>_rate`, gauges as
  /// `idem_<name>`, latency series as
  /// `idem_<name>_{p50,p99,p999,mean}_seconds` and `idem_<name>_rate`.
  static std::string render_prometheus(const LiveSnapshot& snap);

  /// The same snapshot as a JSON object (the /stats "live" section).
  static json::Value render_json(const LiveSnapshot& snap);

 private:
  MetricsReading prev_;
  std::chrono::steady_clock::time_point prev_at_;
};

}  // namespace idem::obs
