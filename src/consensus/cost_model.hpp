// CPU cost model for protocol message handling.
//
// Each replica charges a fixed per-message cost plus a size-proportional
// term for every message it processes (deserialization, bookkeeping), on
// top of application execution costs. The coefficients are calibrated so a
// 3-replica cluster saturates around the paper's ~43k requests/s with 50
// closed-loop clients (see EXPERIMENTS.md for the calibration numbers).
#pragma once

#include <cmath>
#include <cstddef>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/payload.hpp"

namespace idem::consensus {

struct CostModel {
  static constexpr Duration kPerMessage = 1500;  // 1.5 us
  static constexpr double kNsPerByte = 4.0;
  static constexpr Duration kSendPerMessage = 1 * kMicrosecond;
  static constexpr double kSendNsPerByte = 1.0;
  /// Multiplicative service-time variability: each cost is scaled by a
  /// uniform factor in [1-kJitter, 1+kJitter]. Real servers see this from
  /// scheduling, cache misses and GC; it also produces the latency
  /// standard deviations the paper's error bars show.
  static constexpr double kJitter = 0.25;
  /// Occasional slow operations (cache misses, allocator stalls, GC-like
  /// pauses): with kStragglerProb a cost is multiplied by
  /// kStragglerFactor. Queueing amplifies these under load, producing the
  /// growing latency variance the paper's error bars show (Figure 2).
  static constexpr double kStragglerProb = 0.01;
  static constexpr double kStragglerFactor = 6.0;
  /// Serializing a state snapshot for a lagging peer, or restoring one
  /// (state transfer, Section 4.4): a fixed cost plus a per-byte term.
  /// Charged without jitter, and only when a snapshot is actually built or
  /// restored.
  static constexpr Duration kSnapshotBase = 20 * kMicrosecond;
  static constexpr double kSnapshotNsPerByte = 1.0;

  /// Heavy-tailed per-op service costs (a workload knob for deadline and
  /// admission experiments): with `tail_prob`, a cost is also multiplied by
  /// a Pareto draw `pareto_scale / U^(1/pareto_alpha)`. Unlike the bounded
  /// stragglers this produces the unbounded tail that makes naive FIFO
  /// queues blow up p99.9 — the regime where deadline-aware admission and
  /// EDF earn their keep. At 0 (the default) no extra draw is taken.
  double tail_prob = 0;
  double pareto_alpha = 1.5;   ///< shape; <2 = infinite variance
  double pareto_scale = 4.0;   ///< tail multiplier floor

  Duration apply_jitter(Duration base, Rng& rng) const {
    if (base <= 0) return base;
    double factor = 1.0 + kJitter * (2.0 * rng.next_double() - 1.0);
    if (rng.next_double() < kStragglerProb) factor *= kStragglerFactor;
    if (tail_prob > 0 && rng.next_double() < tail_prob) {
      double u = rng.next_double();
      if (u <= 0.0) u = 1.0 / 4294967296.0;
      factor *= pareto_scale * std::pow(u, -1.0 / pareto_alpha);
    }
    return static_cast<Duration>(static_cast<double>(base) * factor);
  }

  Duration cost(const sim::Payload& message, Rng& rng) const {
    return apply_jitter(kPerMessage + size_cost(kNsPerByte, message), rng);
  }

  Duration send_cost(const sim::Payload& message, Rng& rng) const {
    return apply_jitter(kSendPerMessage + size_cost(kSendNsPerByte, message), rng);
  }

  static Duration snapshot_cost(std::size_t bytes) {
    return kSnapshotBase + static_cast<Duration>(kSnapshotNsPerByte * static_cast<double>(bytes));
  }

 private:
  static Duration size_cost(double ns_per, const sim::Payload& message) {
    return static_cast<Duration>(ns_per * static_cast<double>(message.wire_size()));
  }
};

}  // namespace idem::consensus
