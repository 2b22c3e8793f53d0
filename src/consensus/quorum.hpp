// Small helpers for counting votes from distinct replicas.
#pragma once

#include <bit>
#include <cstdint>
#include <unordered_map>

#include "common/ids.hpp"

namespace idem::consensus {

/// Distinct voters, as a bitmask over replica ids below kCapacity (the
/// replicas and clients assert that their cluster fits). Insert, size and
/// clear never allocate; iteration visits the voters in ascending id
/// order.
class VoteSet {
 public:
  static constexpr std::uint32_t kCapacity = 64;

  /// Adds `voter` (idempotent). An id outside the range, which only a
  /// malformed message can carry, is no replica and is not counted.
  void insert(std::uint32_t voter) {
    if (voter < kCapacity) bits_ |= std::uint64_t{1} << voter;
  }
  std::size_t size() const { return static_cast<std::size_t>(std::popcount(bits_)); }
  bool empty() const { return bits_ == 0; }
  void clear() { bits_ = 0; }

  class iterator {
   public:
    std::uint32_t operator*() const { return static_cast<std::uint32_t>(std::countr_zero(rest_)); }
    iterator& operator++() {
      rest_ &= rest_ - 1;  // drop the lowest voter
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    friend class VoteSet;
    explicit iterator(std::uint64_t rest) : rest_(rest) {}
    std::uint64_t rest_;
  };
  iterator begin() const { return iterator{bits_}; }
  iterator end() const { return iterator{0}; }

 private:
  std::uint64_t bits_ = 0;
};

/// Counts distinct replica votes per key (e.g. REQUIREs per request id,
/// COMMITs per sequence number). Double votes from the same replica are
/// idempotent.
template <typename Key>
class QuorumTracker {
 public:
  /// Registers a vote; returns the number of distinct voters for `key`
  /// after the insertion.
  std::size_t vote(const Key& key, ReplicaId voter) {
    auto& voters = votes_[key];
    voters.insert(voter.value);
    return voters.size();
  }

  std::size_t count(const Key& key) const {
    auto it = votes_.find(key);
    return it == votes_.end() ? 0 : it->second.size();
  }

  bool reached(const Key& key, std::size_t quorum) const { return count(key) >= quorum; }

  void erase(const Key& key) { votes_.erase(key); }
  void clear() { votes_.clear(); }
  std::size_t keys() const { return votes_.size(); }

 private:
  std::unordered_map<Key, VoteSet> votes_;
};

}  // namespace idem::consensus
