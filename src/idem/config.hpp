// Configuration of the IDEM protocol (defaults follow the paper's
// evaluation setup, Section 7.1).
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "consensus/cost_model.hpp"
#include "core/intake.hpp"

namespace idem::core {

/// The intake phase's knobs (n, f, r, forward timeout, rejected cache,
/// trace, shard gate) are IntakeConfig's; the rest are the agreement's and
/// the default acceptance test's.
struct IdemConfig : IntakeConfig {
  /// Length of one AQM prioritized-group time slice (paper: 2 s); the rest
  /// of the default acceptance test is fixed (idem/acceptance.hpp).
  Duration aqm_time_slice = 2 * kSecond;

  /// Maximum request ids per PROPOSE batch. The leader cuts once per
  /// scheduling step, so every quorum completed in one step shares a
  /// PROPOSE; no time-based batching is needed on top.
  std::size_t batch_max = 32;

  /// REQUIRE aggregation: accepted ids are flushed to the leader when this
  /// many are pending or the flush interval elapses, whichever is first.
  /// The interval applies on the simulator only (bench/
  /// ablation_design_choices sweeps it). On an rpc::EventLoop the flush
  /// always waits for the end of the loop iteration: due timers fire after
  /// the iteration's I/O batch, so every id accepted from one recv burst
  /// leaves in a single REQUIRE with no added wall-clock delay.
  std::size_t require_batch_max = 32;
  Duration require_flush_interval = 50 * kMicrosecond;

  /// Progress timeout before a replica abandons the view (Section 4.5).
  Duration viewchange_timeout = 1500 * kMillisecond;

  /// CPU cost model for message handling; only its heavy tail is settable.
  consensus::CostModel costs;

  std::size_t r_max() const { return n * reject_threshold; }
  /// Consensus window size w = 4 * r_max; it must be >= r_max for implicit
  /// GC (Section 4.4).
  std::uint64_t window() const { return 4 * r_max(); }
};

}  // namespace idem::core
