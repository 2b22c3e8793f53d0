// LRU cache of recently rejected request bodies (paper Section 5.2).
//
// A rejection is *ambivalent* until the client has collected n rejects
// (Section 4.5): any other replica may have accepted the request, in which
// case it will be ordered and this replica must be able to supply the body
// to FETCH and agreement. The cache therefore keeps rejected bodies
// available, and a repeat rejection refreshes the entry's recency instead
// of letting it age out — as long as the client retries, the request can
// still execute.
#pragma once

#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"

namespace idem::core {

class RejectedCache {
 public:
  explicit RejectedCache(std::size_t capacity = 0) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return lru_.size(); }

  /// Inserts `id` at the front, or refreshes its LRU position when already
  /// cached (the repeat-rejection rule above). Evicts from the back.
  void insert(RequestId id, std::vector<std::byte> command) {
    if (capacity_ == 0) return;
    if (auto it = index_.find(id); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.emplace_front(id, std::move(command));
    index_[id] = lru_.begin();
    while (lru_.size() > capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
    }
  }

  /// Drops `id`, typically because it was promoted to an accepted request.
  void erase(RequestId id) {
    if (auto it = index_.find(id); it != index_.end()) {
      lru_.erase(it->second);
      index_.erase(it);
    }
  }

  bool contains(RequestId id) const { return index_.contains(id); }

  const std::vector<std::byte>* find(RequestId id) const {
    auto it = index_.find(id);
    return it == index_.end() ? nullptr : &it->second->second;
  }

 private:
  std::size_t capacity_ = 0;
  std::list<std::pair<RequestId, std::vector<std::byte>>> lru_;
  std::unordered_map<RequestId,
                     std::list<std::pair<RequestId, std::vector<std::byte>>>::iterator>
      index_;
};

}  // namespace idem::core
