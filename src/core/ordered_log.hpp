// The ordered log every protocol agrees on: a sparse slot map keyed by
// sequence number, an execution cursor, and a window low watermark for
// garbage collection.
//
// The slot payload is protocol-specific (IDEM slots carry request ids and
// commit votes, Paxos/SMaRt slots carry full requests and their own vote
// sets), so the log is templated over it. Slots embed SlotBase for the
// lifecycle flags every protocol shares. The log owns structure and
// cursor motion; quorum policy and execution stay with the protocol.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

namespace idem::core {

/// Lifecycle flags common to every protocol's consensus slot.
struct SlotBase {
  bool has_binding = false;  ///< a proposal has bound requests to this slot
  bool executed = false;     ///< applied to the state machine (immutable now)
  bool quorum_traced = false;  ///< decision-quorum trace event emitted once
};

template <typename Slot>
class OrderedLog {
 public:
  using Map = std::map<std::uint64_t, Slot>;

  /// The slot for `sqn`, created on first touch.
  Slot& at(std::uint64_t sqn) { return slots_[sqn]; }

  Slot* find(std::uint64_t sqn) {
    auto it = slots_.find(sqn);
    return it == slots_.end() ? nullptr : &it->second;
  }
  const Slot* find(std::uint64_t sqn) const {
    auto it = slots_.find(sqn);
    return it == slots_.end() ? nullptr : &it->second;
  }
  bool contains(std::uint64_t sqn) const { return slots_.contains(sqn); }

  /// Raw slot map, for protocol-specific scans (fetch prefetch, view-change
  /// window assembly, gap analysis).
  Map& slots() { return slots_; }
  const Map& slots() const { return slots_; }

  /// Next sequence number to execute.
  std::uint64_t next_exec() const { return next_exec_; }
  void set_next_exec(std::uint64_t sqn) { next_exec_ = sqn; }
  void advance_head() { ++next_exec_; }

  /// Start of the consensus window: the log holds no slot below it.
  std::uint64_t low() const { return low_; }

  /// The slot at the execution cursor, or null.
  Slot* head() { return find(next_exec_); }

  /// First sequence number >= `sqn` without a binding — new proposals must
  /// skip slots taken over from an earlier view.
  std::uint64_t skip_bound(std::uint64_t sqn) const {
    for (;;) {
      auto it = slots_.find(sqn);
      if (it == slots_.end() || !it->second.has_binding) return sqn;
      ++sqn;
    }
  }

  /// One past the highest slot matching `pred`, but at least `floor` — the
  /// first free sequence number a new leader may propose into.
  template <typename P>
  std::uint64_t high_watermark(std::uint64_t floor, P&& pred) const {
    std::uint64_t high = floor;
    for (const auto& [sqn, slot] : slots_) {
      if (pred(slot) && sqn + 1 > high) high = sqn + 1;
    }
    return high;
  }

  /// Advances the window: drops every slot below `new_low`, invoking
  /// `on_executed(slot)` for executed ones first (so the protocol can
  /// release per-request state).
  template <typename F>
  void advance_low(std::uint64_t new_low, F&& on_executed) {
    for (auto it = slots_.begin(); it != slots_.end() && it->first < new_low;) {
      if (it->second.executed) on_executed(it->second);
      it = slots_.erase(it);
    }
    low_ = new_low;
  }

  /// Baseline-style GC: keep the trailing 2 * `window_size` executed slots
  /// (enough to answer retransmitted proposals), drop everything older and
  /// move the window start past it.
  void gc_executed(std::uint64_t window_size) {
    if (next_exec_ < 2 * window_size) return;
    low_ = next_exec_ - 2 * window_size;
    slots_.erase(slots_.begin(), slots_.lower_bound(low_));
  }

 private:
  Map slots_;
  std::uint64_t next_exec_ = 0;
  std::uint64_t low_ = 0;
};

}  // namespace idem::core
