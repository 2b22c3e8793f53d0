// The simulation kernel: virtual clock + event loop + named RNG streams.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/event_queue.hpp"
#include "sim/runtime.hpp"

namespace idem::sim {

class Simulator final : public Runtime {
 public:
  explicit Simulator(std::uint64_t seed = 1) : seed_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const override { return now_; }
  std::uint64_t seed() const override { return seed_; }
  bool wall_clock() const override { return false; }

  /// Schedules `fn` to run at `now() + delay` (delay clamped to >= 0).
  EventId schedule_after(Duration delay, EventQueue::Callback fn) override {
    if (delay < 0) delay = 0;
    return queue_.push(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at an absolute time (clamped to >= now()).
  EventId schedule_at(Time at, EventQueue::Callback fn) override {
    if (at < now_) at = now_;
    return queue_.push(at, std::move(fn));
  }

  bool cancel(EventId id) override { return queue_.cancel(id); }

  void after_flush(EventQueue::Callback fn) override { fn(); }

  /// Runs events until the queue empties or the clock would pass `until`.
  /// The clock is left at min(until, time of last event) — i.e. exactly
  /// `until` when events remain.
  void run_until(Time until) {
    while (!queue_.empty() && queue_.next_time() <= until) {
      step();
    }
    if (now_ < until) now_ = until;
  }

  /// Runs events for `span` of simulated time from now().
  void run_for(Duration span) { run_until(now_ + span); }

  /// Runs until the queue is empty or `stop` returns true (checked before
  /// each event). Returns the number of events executed.
  std::uint64_t run_while(const std::function<bool()>& keep_going) {
    std::uint64_t executed = 0;
    while (!queue_.empty() && keep_going()) {
      step();
      ++executed;
    }
    return executed;
  }

  /// Executes a single event. Requires a non-empty queue.
  void step() {
    auto ev = queue_.pop();
    now_ = ev.at;
    ++executed_;
    ev.fn();
  }

  bool idle() const { return queue_.empty(); }
  std::size_t pending_events() const { return queue_.size(); }

  /// Total events dispatched since construction (for benchmarks).
  std::uint64_t events_executed() const { return executed_; }

  /// Returns a deterministic per-component RNG. The same (seed, name) pair
  /// always yields the same stream; distinct names are independent.
  Rng& rng(std::string_view name) override {
    std::uint64_t key = hash_name(name);
    auto it = rngs_.find(key);
    if (it == rngs_.end()) {
      it = rngs_.emplace(key, std::make_unique<Rng>(seed_, key)).first;
    }
    return *it->second;
  }

 private:
  static std::uint64_t hash_name(std::string_view name) {
    // FNV-1a, stable across platforms (std::hash<string_view> is not).
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    return h;
  }

  std::uint64_t seed_;
  Time now_ = 0;
  std::uint64_t executed_ = 0;
  EventQueue queue_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Rng>> rngs_;
};

}  // namespace idem::sim
