// The view change (paper Section 4.5), with the garbage-collection line of
// Section 4.4, shared by IDEM and Paxos: the view state, the binding rule,
// demanding, joining and escalating a view change, the new leader's merge,
// its no-op fill and re-proposals, and entering a view.
//
// Two safety rules hold here for both protocols:
//   - the promise: a replica that demanded view t takes no part in a view
//     below t (observe ignores it), or it could help decide a slot in that
//     view after shipping a window to t's leader without it;
//   - the line: a VIEWCHANGE's window_start says the sender's log holds no
//     slot below it, so every slot below the highest window_start of the
//     quorum was executed and collected by its reporter. The new leader
//     neither re-proposes nor no-op-fills such a slot, and catches up to
//     the line before it leads.
// What the protocols do differently is a call on the replica (Host); the
// view change itself never sends. DESIGN.md §7 and §11.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "consensus/addresses.hpp"
#include "consensus/messages.hpp"
#include "consensus/quorum.hpp"
#include "core/lifecycle.hpp"
#include "core/ordered_log.hpp"
#include "core/timers.hpp"
#include "obs/trace.hpp"
#include "sim/runtime.hpp"

namespace idem::core {

/// A slot whose binding survives view changes: the items bound to it (ids
/// for IDEM, requests for Paxos, none for a no-op), the view that bound
/// them, and the votes for that binding.
template <typename ItemT>
struct BoundSlot : SlotBase {
  using Item = ItemT;
  ViewId view;              ///< view of the newest binding seen
  std::vector<Item> items;  ///< empty until a PROPOSE arrives, and for a no-op
  bool own_vote_sent = false;
  consensus::VoteSet votes;  ///< replicas that accepted this binding
};

template <typename Slot>
class ViewChange {
 public:
  using Item = typename Slot::Item;
  using Message = msg::BasicViewChange<Item>;

  /// The replica, at the five places where IDEM and Paxos differ.
  class Host {
   public:
    /// This replica demands a view: multicast `viewchange`, count it and
    /// re-arm the failure timer.
    virtual void demanded(sim::PayloadPtr viewchange) = 0;
    /// This replica entered a view; `demoted` when it led the view it left
    /// and does not lead this one.
    virtual void entered(bool demoted) = 0;
    /// The new leader re-proposes `slot`, now bound at `sqn` in its view.
    virtual void repropose(std::uint64_t sqn, const Slot& slot) = 0;
    /// This replica leads the view it entered; new batches go to `next_free`
    /// and above.
    virtual void lead(std::uint64_t next_free) = 0;
    /// The new leader's execution head is below `line`, which `reporter`
    /// announced: catch up to it, or return false and do not lead.
    virtual bool catch_up(std::uint64_t line, ReplicaId reporter) = 0;

   protected:
    ~Host() = default;
  };

  /// `clock` stamps trace events (read only when `trace` is set).
  ViewChange(Host& host, OrderedLog<Slot>& log, const sim::Runtime& clock, ReplicaId me,
             std::size_t n, obs::TraceRecorder* trace)
      : host_(host), log_(log), clock_(clock), me_(me), n_(n), trace_(trace) {}
  ViewChange(const ViewChange&) = delete;
  ViewChange& operator=(const ViewChange&) = delete;

  ViewId view() const { return view_; }
  bool in_viewchange() const { return in_viewchange_; }
  bool leads() const { return !in_viewchange_ && consensus::leader_of(view_, n_) == me_; }
  /// The view whose leader intake traffic goes to: the target amid a view
  /// change (the old leader is presumed dead).
  ViewId leader_view() const { return in_viewchange_ ? target_ : view_; }
  /// Escalation target for a fresh progress timeout.
  ViewId next_target() const { return next_view_target(in_viewchange_, view_, target_); }

  /// The view stamped on an incoming agreement message: false when the
  /// message is to be ignored; a newer view is entered first.
  bool observe(ViewId view) {
    if (view < view_) return false;
    if (view == view_) return !in_viewchange_;
    if (in_viewchange_ && view < target_) return false;  // the promise
    enter(view);
    return true;
  }

  /// The binding rule: `items` bound at `sqn` in `view` replaces the slot's
  /// binding, unless the slot is collected, executed, or bound in the same
  /// or a newer view.
  void adopt(std::uint64_t sqn, ViewId view, const std::vector<Item>& items) {
    if (sqn < log_.low()) return;
    Slot& slot = log_.at(sqn);
    if (slot.executed) return;
    if (slot.has_binding && slot.view >= view) return;
    if (!slot.has_binding) lifecycle::propose_received(trace_, clock_, me_.value, sqn);
    slot.view = view;
    slot.items = items;
    slot.has_binding = true;
    slot.own_vote_sent = false;
    slot.votes.clear();
  }

  /// Demands `target`, or escalates to it, with every bound slot of the log.
  void demand(ViewId target) {
    if (target <= view_ || (in_viewchange_ && target_ >= target)) return;
    in_viewchange_ = true;
    target_ = target;
    lifecycle::viewchange_start(trace_, clock_, me_.value, target.value);

    auto viewchange = std::make_shared<Message>();
    viewchange->from = me_;
    viewchange->target = target;
    viewchange->window_start = SeqNum{log_.low()};
    for (const auto& [sqn, slot] : log_.slots()) {
      // Executed slots too: a binding only this replica executed would be
      // invisible to the merge, which could then rebind the slot.
      if (slot.has_binding) viewchange->proposals.push_back({SeqNum{sqn}, slot.view, slot.items});
    }
    store_[me_.value] = *viewchange;
    host_.demanded(viewchange);
    maybe_lead(target);
  }

  /// A peer's VIEWCHANGE.
  void handle(const Message& viewchange) {
    if (viewchange.target <= view_) return;
    auto stored = store_.find(viewchange.from.value);
    if (stored == store_.end() || stored->second.target <= viewchange.target) {
      store_[viewchange.from.value] = viewchange;
    }
    // Amid a view change a higher target is adopted at once: escalating on
    // timeouts alone, stragglers would chase each other's targets forever.
    // Otherwise join once f+1 replicas demand the target: the current view
    // no longer has the support to make progress.
    if ((in_viewchange_ && viewchange.target > target_) ||
        (!in_viewchange_ && matching(viewchange.target) >= quorum())) {
      demand(viewchange.target);  // runs maybe_lead
      return;
    }
    maybe_lead(viewchange.target);
  }

 private:
  std::size_t quorum() const { return n_ / 2 + 1; }

  /// Replicas demanding exactly `target`.
  std::size_t matching(ViewId target) const {
    return static_cast<std::size_t>(std::count_if(
        store_.begin(), store_.end(), [&](const auto& stored) { return stored.second.target == target; }));
  }

  /// The leader of `target` takes the view once f+1 replicas demand it:
  /// it merges their windows (per slot, the newest view wins), enters the
  /// view and re-proposes every unexecuted slot from the line up to the
  /// highest binding, filling holes with no-ops.
  void maybe_lead(ViewId target) {
    if (!in_viewchange_ || target_ != target || consensus::leader_of(target, n_) != me_) return;
    if (matching(target) < quorum()) return;

    std::uint64_t line = 0;
    ReplicaId reporter = me_;
    for (const auto& [from, stored] : store_) {
      if (stored.target == target && stored.window_start.value > line) {
        line = stored.window_start.value;
        reporter = stored.from;
      }
    }
    if (log_.next_exec() < line && !host_.catch_up(line, reporter)) return;

    for (const auto& [from, stored] : store_) {
      if (stored.target != target) continue;
      for (const auto& entry : stored.proposals) adopt(entry.sqn.value, entry.view, entry.items);
    }
    enter(target);

    const std::uint64_t high =
        log_.high_watermark(log_.low(), [](const Slot& slot) { return slot.has_binding; });
    for (std::uint64_t sqn = std::max(log_.next_exec(), line); sqn < high; ++sqn) {
      Slot& slot = log_.at(sqn);
      if (slot.executed) continue;
      if (!slot.has_binding) {
        slot.items.clear();  // no-op filler
        slot.has_binding = true;
      }
      // Re-proposed in the new view: old-view votes are void.
      slot.view = view_;
      slot.votes.clear();
      slot.votes.insert(me_.value);
      slot.own_vote_sent = true;
      host_.repropose(sqn, slot);
    }
    host_.lead(std::max(high, line));
  }

  /// Installs `view`, dropping the VIEWCHANGEs it settles.
  void enter(ViewId view) {
    const bool led = leads();
    view_ = view;
    in_viewchange_ = false;
    std::erase_if(store_, [&](const auto& stored) { return stored.second.target <= view_; });
    lifecycle::viewchange_done(trace_, clock_, me_.value, view.value);
    host_.entered(led && !leads());
  }

  Host& host_;
  OrderedLog<Slot>& log_;
  const sim::Runtime& clock_;
  const ReplicaId me_;
  const std::size_t n_;
  obs::TraceRecorder* const trace_;

  ViewId view_;
  bool in_viewchange_ = false;
  ViewId target_;  ///< the view demanded, and promised, amid a view change
  std::unordered_map<std::uint32_t, Message> store_;  ///< newest VIEWCHANGE per sender
};

}  // namespace idem::core
