// Runtime abstraction: clock, timers and randomness for protocol code.
//
// sim::Simulator implements it with a virtual clock (deterministic,
// fast-forwarding); rpc::EventLoop implements it with the steady clock and
// an epoll loop. Protocol nodes only see this interface.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/event_queue.hpp"

namespace idem::sim {

class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Current time in nanoseconds since runtime start.
  virtual Time now() const = 0;

  /// Schedules `fn` at now() + delay (clamped to >= 0).
  virtual EventId schedule_after(Duration delay, EventQueue::Callback fn) = 0;

  /// Schedules `fn` at an absolute time (clamped to >= now()).
  virtual EventId schedule_at(Time at, EventQueue::Callback fn) = 0;

  /// Cancels a pending event; no-op if it already fired.
  virtual bool cancel(EventId id) = 0;

  /// Runs `fn` once the sends made so far have left. A simulated send
  /// leaves when it is made, so the simulator runs `fn` at once; an event
  /// loop runs it after the current iteration's flushes.
  virtual void after_flush(EventQueue::Callback fn) = 0;

  /// Deterministic per-component RNG stream (same (seed, name) pair =>
  /// same stream).
  virtual Rng& rng(std::string_view name) = 0;

  /// The experiment seed the RNG streams derive from.
  virtual std::uint64_t seed() const = 0;

  /// True when now() is the wall clock. Fixed by the runtime's type; a
  /// sim::Node takes its dispatch rule from it (see sim/node.hpp).
  virtual bool wall_clock() const = 0;
};

}  // namespace idem::sim
