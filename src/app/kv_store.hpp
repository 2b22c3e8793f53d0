// In-memory key-value store used as the replicated application
// (the paper evaluates with YCSB against a replicated key-value store).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "app/state_machine.hpp"
#include "common/time.hpp"

namespace idem::app {

/// Wire format of KV commands and results.
enum class KvOp : std::uint8_t { Get = 1, Put = 2, Delete = 3, Scan = 4 };

struct KvCommand {
  KvOp op = KvOp::Get;
  std::string key;
  std::string value;        ///< Put only
  std::uint32_t scan_len = 0;  ///< Scan only

  std::vector<std::byte> encode() const;
  static KvCommand decode(std::span<const std::byte> data);
};

struct KvResult {
  enum class Status : std::uint8_t { Ok = 0, NotFound = 1, BadRequest = 2 };
  Status status = Status::Ok;
  std::vector<std::string> values;

  std::vector<std::byte> encode() const;
  static KvResult decode(std::span<const std::byte> data);
  bool ok() const { return status == Status::Ok; }
};

/// The hash behind KvStore's index. Each store passes its own random seed,
/// so a client cannot pick keys that share a home slot in it.
std::uint64_t kv_hash(std::string_view key, std::uint64_t seed);

/// The bytes of a KvStore's keys and values, addressed by 32-bit offsets.
/// An append that would pass kMaxBytes throws std::length_error and leaves
/// the arena as it was, so no offset ever wraps.
class KvArena {
 public:
  /// Every offset and length fits 32 bits with UINT32_MAX left over, which
  /// KvStore uses to mark a deleted record.
  static constexpr std::size_t kMaxBytes = std::numeric_limits<std::uint32_t>::max() - 1;

  bool fits(std::size_t n) const { return n <= kMaxBytes - bytes_.size(); }
  /// Appends `key` and then `value`, neither of which may point into the
  /// arena; returns where `key` starts.
  std::uint32_t append(std::string_view key, std::string_view value);
  std::string_view view(std::uint32_t offset, std::uint32_t len) const {
    return {bytes_.data() + offset, len};
  }
  char* at(std::uint32_t offset) { return bytes_.data() + offset; }
  void reserve(std::size_t n) { bytes_.reserve(n < kMaxBytes ? n : kMaxBytes); }
  std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<char> bytes_;
};

/// Flat store (DESIGN.md §8 "The key-value store"): keys and values live
/// in one byte arena, an open-addressing hash index maps a key to its
/// record, and the key order that Scan, snapshot() and entries() follow
/// (std::string order) is kept in sorted chunks of record ids, into which
/// out-of-order inserts are placed lazily. Snapshots are canonical: equal
/// contents serialize to equal bytes on every replica, whatever order the
/// keys were written in. One thread at a time, const members included: an
/// ordered read places the pending keys.
class KvStore final : public StateMachine {
 public:
  /// Simulated execution cost: a fixed per-op cost, calibrated so a
  /// 3-replica cluster (execution on every replica dominating the
  /// per-request budget) saturates around the paper's ~43k requests/s,
  /// plus the marginal cost of a Put's value bytes or a Scan's entries.
  static constexpr Duration kExecutionBase = 13 * kMicrosecond;
  static constexpr double kNsPerValueByte = 2.0;
  static constexpr Duration kPerScanEntry = 1 * kMicrosecond;

  std::vector<std::byte> execute(std::span<const std::byte> command) override;
  std::vector<std::byte> snapshot() const override;
  /// A repeated key keeps its first value; a key out of order still lands
  /// where it belongs.
  void restore(std::span<const std::byte> snapshot) override;
  Duration execution_cost(std::span<const std::byte> command) const override;

  // Direct (non-replicated) accessors for tests and examples.
  std::optional<std::string> get(std::string_view key) const;
  void put(std::string_view key, std::string_view value);
  std::size_t size() const { return live_; }
  /// Full contents in key order, copied out — shard-range extraction walks
  /// this to carve the migrating keys out of a quiesced source replica.
  std::vector<std::pair<std::string, std::string>> entries() const;
  /// Bytes the arena holds: live keys and values, and what deletes and
  /// overwrites left behind, which compaction keeps no larger than the live
  /// bytes.
  std::size_t arena_bytes() const { return arena_.size(); }
  /// Index slots the longest lookup of a present key walks.
  std::size_t longest_probe() const;

 private:
  struct Record {
    std::uint32_t offset = 0;  ///< key at arena_[offset], value right after; kDeleted once gone
    std::uint32_t key_len = 0;
    std::uint32_t value_len = 0;
    std::uint32_t value_cap = 0;  ///< value bytes the record may fill in place
  };
  struct Slot {
    std::uint32_t id = kNoRecord;
    std::uint32_t tag = 0;  ///< the key hash's low half; its low bits are the home slot
  };
  static constexpr std::uint32_t kNoRecord = std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint32_t kDeleted = std::numeric_limits<std::uint32_t>::max();

  /// A random seed for each new store's hash.
  static std::uint64_t fresh_seed();

  std::string_view key_of(std::uint32_t id) const {
    return arena_.view(records_[id].offset, records_[id].key_len);
  }
  std::string_view value_of(std::uint32_t id) const {
    const Record& r = records_[id];
    return arena_.view(r.offset + r.key_len, r.value_len);
  }
  std::uint32_t tag_of(std::string_view key) const {
    return static_cast<std::uint32_t>(kv_hash(key, seed_));
  }
  /// The slot holding `key`, or the empty slot its probe ended at.
  std::size_t probe(std::string_view key, std::uint32_t tag) const;
  std::uint32_t find(std::string_view key) const;
  /// Inserts or overwrites; `overwrite` false keeps an existing value.
  void upsert(std::string_view key, std::string_view value, bool overwrite);
  /// Stores a new key's record and places it in the key order, but not in
  /// the index; returns its id.
  std::uint32_t add_record(std::string_view key, std::string_view value);
  /// Returns false if `key` is absent.
  bool erase(std::string_view key);
  void reserve(std::size_t records, std::size_t bytes);
  void grow_index(std::size_t capacity);
  /// Puts `slot` in the first empty slot of its probe run.
  static void place(std::vector<Slot>& index, Slot slot);
  /// Appends a record's bytes, compacting first when the arena is full.
  std::uint32_t append(std::string_view key, std::string_view value);
  void compact_if_sparse();
  void compact();
  /// Where the first key not less than `key` sits in the key order:
  /// chunks_[chunk][at], or chunk == chunks_.size() past the last key.
  struct Position {
    std::size_t chunk = 0;
    std::size_t at = 0;
  };
  Position seek(std::string_view key) const;
  /// Places a record id in the key order, splitting a full chunk.
  void place_in_order(std::uint32_t id) const;
  /// Places the ids in tail_; const readers call it too, which is why the
  /// order is mutable.
  void tidy_order() const;

  KvArena arena_;
  std::vector<Record> records_;
  std::vector<Slot> index_;  ///< power-of-two size, at most 3/4 full
  std::uint64_t seed_ = fresh_seed();
  std::size_t live_ = 0;
  std::size_t live_bytes_ = 0;  ///< key and value bytes of live records
  /// The key order: live record ids in chunks of at most kChunk, each
  /// chunk sorted, the chunks in key order, none empty. Ids of keys that
  /// arrived out of order wait in tail_ for the next tidy_order().
  static constexpr std::size_t kChunk = 256;
  mutable std::vector<std::vector<std::uint32_t>> chunks_;
  mutable std::vector<std::uint32_t> tail_;
  std::vector<std::uint32_t> free_;  ///< ids of deleted records, to reuse
};

}  // namespace idem::app
