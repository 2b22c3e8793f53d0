// CPU cost model for protocol message handling.
//
// Each replica charges a fixed per-message cost plus a size-proportional
// term for every message it processes (deserialization, bookkeeping), on
// top of application execution costs. The defaults are calibrated so a
// 3-replica cluster saturates around the paper's ~43k requests/s with 50
// closed-loop clients (see EXPERIMENTS.md for the calibration numbers).
#pragma once

#include <cmath>
#include <cstddef>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/payload.hpp"

namespace idem::consensus {

/// Heavy-tail service-cost distribution (workload knob for deadline and
/// admission experiments). None keeps the classic uniform-jitter model
/// and draws nothing extra from the RNG stream, so default trajectories
/// stay pinned.
enum class TailShape {
  None,       ///< uniform jitter + stragglers only (default)
  Pareto,     ///< multiplier scale/U^(1/alpha): polynomial tail
  LogNormal,  ///< multiplier exp(N(mu, sigma)): subexponential tail
};

struct CostModel {
  Duration per_message = 1500;  // 1.5 us
  double ns_per_byte = 4.0;
  Duration send_per_message = 1 * kMicrosecond;
  double send_ns_per_byte = 1.0;
  /// Multiplicative service-time variability: each cost is scaled by a
  /// uniform factor in [1-jitter, 1+jitter]. Real servers see this from
  /// scheduling, cache misses and GC; it also produces the latency
  /// standard deviations the paper's error bars show.
  double jitter = 0.25;
  /// Occasional slow operations (cache misses, allocator stalls, GC-like
  /// pauses): with `straggler_prob` a cost is multiplied by
  /// `straggler_factor`. Queueing amplifies these under load, producing
  /// the growing latency variance the paper's error bars show (Figure 2).
  double straggler_prob = 0.01;
  double straggler_factor = 6.0;
  /// Serializing a state snapshot for a lagging peer, or restoring one
  /// (state transfer, Section 4.4): a fixed cost plus a per-byte term.
  /// Charged without jitter, and only when a snapshot is actually built or
  /// restored.
  Duration snapshot_base = 20 * kMicrosecond;
  double snapshot_ns_per_byte = 1.0;

  /// Heavy-tailed per-op service costs: with `tail_prob`, a cost draws an
  /// extra multiplier from the configured tail distribution. Unlike the
  /// bounded straggler knob this produces the unbounded tails (Pareto /
  /// log-normal) that make naive FIFO queues blow up p99.9 — the regime
  /// where deadline-aware admission and EDF earn their keep.
  TailShape tail = TailShape::None;
  double tail_prob = 0.05;
  double pareto_alpha = 1.5;   ///< shape; <2 = infinite variance
  double pareto_scale = 4.0;   ///< tail multiplier floor
  double lognormal_mu = 1.5;   ///< of the multiplier's natural log
  double lognormal_sigma = 1.0;

  double tail_multiplier(Rng& rng) const {
    if (tail == TailShape::Pareto) {
      double u = rng.next_double();
      if (u <= 0.0) u = 1.0 / 4294967296.0;
      return pareto_scale * std::pow(u, -1.0 / pareto_alpha);
    }
    return std::exp(rng.normal(lognormal_mu, lognormal_sigma));
  }

  Duration apply_jitter(Duration base, Rng& rng) const {
    if (base <= 0) return base;
    if (jitter <= 0 && tail == TailShape::None) return base;
    double factor = 1.0;
    if (jitter > 0) {
      factor = 1.0 + jitter * (2.0 * rng.next_double() - 1.0);
      if (straggler_prob > 0 && rng.next_double() < straggler_prob) {
        factor *= straggler_factor;
      }
    }
    if (tail != TailShape::None && tail_prob > 0 && rng.next_double() < tail_prob) {
      factor *= tail_multiplier(rng);
    }
    return static_cast<Duration>(static_cast<double>(base) * factor);
  }

  Duration cost(const sim::Payload& message, Rng& rng) const {
    return apply_jitter(per_message + size_cost(ns_per_byte, message), rng);
  }

  Duration send_cost(const sim::Payload& message, Rng& rng) const {
    return apply_jitter(send_per_message + size_cost(send_ns_per_byte, message), rng);
  }

  Duration snapshot_cost(std::size_t bytes) const {
    return snapshot_base + static_cast<Duration>(snapshot_ns_per_byte * static_cast<double>(bytes));
  }

  /// The size-proportional term. A zero coefficient charges 0 ns without
  /// asking for the size, which would encode the message.
  static Duration size_cost(double ns_per, const sim::Payload& message) {
    if (ns_per == 0.0) return 0;
    return static_cast<Duration>(ns_per * static_cast<double>(message.wire_size()));
  }
};

}  // namespace idem::consensus
