// Deterministic state-machine interface executed by every replica.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/time.hpp"

namespace idem::app {

/// The replicated application. Implementations must be deterministic:
/// the same command sequence applied to the same initial state yields the
/// same outputs and the same snapshot on every replica.
class StateMachine {
 public:
  virtual ~StateMachine() = default;

  /// Applies one command and returns its result (the bytes sent back to
  /// the client in a REPLY).
  virtual std::vector<std::byte> execute(std::span<const std::byte> command) = 0;

  /// Serializes the complete application state (for state transfer).
  virtual std::vector<std::byte> snapshot() const = 0;

  /// Replaces the state with a previously produced snapshot. May throw
  /// (e.g. CodecError) on a malformed snapshot, in which case the call
  /// must be strongly exception-safe: the existing state stays untouched
  /// (decode into fresh storage, then swap).
  virtual void restore(std::span<const std::byte> snapshot) = 0;

  /// Simulated CPU cost of executing `command`; drives the replica's
  /// service-queue model. Defaults to a small constant.
  virtual Duration execution_cost(std::span<const std::byte> command) const {
    (void)command;
    return 5 * kMicrosecond;
  }
};

}  // namespace idem::app
