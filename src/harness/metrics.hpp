// Metrics collected by the load driver (harness/load.hpp), in every mode.
#pragma once

#include <cstdint>

#include "check/history.hpp"
#include "common/histogram.hpp"
#include "common/time.hpp"
#include "common/timeseries.hpp"
#include "sim/network.hpp"

namespace idem::harness {

struct RunMetrics {
  /// Length of the measurement window (excludes warm-up).
  Duration measured = 0;

  // Steady-state distributions over the measurement window.
  Histogram reply_latency;
  Histogram reject_latency;
  std::uint64_t issued = 0;    ///< operations started in the window
  std::uint64_t replies = 0;
  std::uint64_t rejects = 0;   ///< operations aborted after rejections
  std::uint64_t timeouts = 0;  ///< operations abandoned without information
  std::uint64_t malformed = 0;  ///< replies whose KvResult says BadRequest
  std::uint64_t deferred = 0;   ///< open-loop arrivals that found their client busy
  std::uint64_t deadline_ops = 0;     ///< replies to deadline-carrying operations
  std::uint64_t deadline_misses = 0;  ///< ...that landed after their budget

  // Timelines over the *whole* run (including warm-up) for crash plots;
  // sample value = latency in milliseconds.
  TimeSeries reply_series{100 * kMillisecond};
  TimeSeries reject_series{100 * kMillisecond};

  // Simulated network traffic accumulated during the measurement
  // (harness::drive only).
  sim::TrafficStats client_traffic;
  sim::TrafficStats replica_traffic;

  /// Every operation the driver issued (LoadConfig::record_history only).
  check::History history;

  double reply_throughput() const {
    return measured > 0 ? static_cast<double>(replies) / to_sec(measured) : 0.0;
  }
  double reject_throughput() const {
    return measured > 0 ? static_cast<double>(rejects) / to_sec(measured) : 0.0;
  }
  double reply_latency_ms() const { return to_ms(reply_latency.mean()); }
  double reply_latency_stddev_ms() const { return to_ms(reply_latency.stddev()); }
  double reject_latency_ms() const { return to_ms(reject_latency.mean()); }
  double reject_latency_stddev_ms() const { return to_ms(reject_latency.stddev()); }

  /// Fraction of deadline-carrying replies that landed after their budget
  /// (rejected operations are the admission policy doing its job; ghosts
  /// that executed too late are the failures this measures).
  double deadline_miss_rate() const {
    return deadline_ops > 0
               ? static_cast<double>(deadline_misses) / static_cast<double>(deadline_ops)
               : 0.0;
  }

  // Tail percentiles of the reply distribution, in milliseconds.
  double reply_p50_ms() const { return to_ms(reply_latency.p50()); }
  double reply_p90_ms() const { return to_ms(reply_latency.p90()); }
  double reply_p99_ms() const { return to_ms(reply_latency.p99()); }
  double reply_p999_ms() const { return to_ms(reply_latency.p999()); }
  std::uint64_t total_bytes() const { return client_traffic.bytes + replica_traffic.bytes; }
};

}  // namespace idem::harness
