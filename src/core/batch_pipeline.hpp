// Leader-side request batching.
//
// All four protocols queue proposal candidates (request ids or full
// requests) and cut batches of at most batch_max off the head, once per
// proposal. This class owns the queue and the cut; the protocol supplies a
// per-item verdict when cutting:
//   Take  — include in the current batch (counts toward batch_max)
//   Drop  — discard (already executed or proposed)
//   Defer — keep queued behind the current tail (body not yet available)
#pragma once

#include <cstddef>
#include <deque>
#include <utility>

namespace idem::core {

template <typename Item>
class BatchPipeline {
 public:
  struct Policy {
    std::size_t batch_max = 32;
  };

  void configure(const Policy& policy) { policy_ = policy; }

  void push(Item item) { queue_.push_back(std::move(item)); }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

  void clear() { queue_.clear(); }

  enum class Verdict { Take, Drop, Defer };

  /// Cuts one batch off the queue head: pops items until batch_max have
  /// been taken or every item queued at the call has been seen, invoking
  /// `verdict` on each. Taken items are typically moved out by the verdict
  /// callback itself; deferred items are re-queued behind the tail in
  /// their original relative order. Returns the number taken.
  template <typename F>
  std::size_t cut(F&& verdict) {
    std::size_t taken = 0;
    for (std::size_t unseen = queue_.size(); unseen > 0 && taken < policy_.batch_max;
         --unseen) {
      Item item = std::move(queue_.front());
      queue_.pop_front();
      switch (verdict(item)) {
        case Verdict::Take:
          ++taken;
          break;
        case Verdict::Drop:
          break;
        case Verdict::Defer:
          queue_.push_back(std::move(item));
          break;
      }
    }
    return taken;
  }

 private:
  Policy policy_;
  std::deque<Item> queue_;
};

}  // namespace idem::core
