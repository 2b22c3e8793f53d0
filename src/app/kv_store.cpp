#include "app/kv_store.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <random>
#include <stdexcept>

#include "common/codec.hpp"
#include "common/rng.hpp"

namespace idem::app {

namespace {

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

std::size_t str_size(std::string_view s) { return varint_size(s.size()) + s.size(); }

/// A command read in place: `key` and `value` view the encoded bytes.
/// Throws CodecError when the command is cut short.
struct KvCommandView {
  KvOp op = KvOp::Get;
  std::string_view key;
  std::string_view value;      ///< Put only
  std::uint32_t scan_len = 0;  ///< Scan only

  static KvCommandView parse(std::span<const std::byte> data) {
    ByteReader r(data);
    KvCommandView cmd;
    cmd.op = static_cast<KvOp>(r.u8());
    cmd.key = r.str_view();
    switch (cmd.op) {
      case KvOp::Put:
        cmd.value = r.str_view();
        break;
      case KvOp::Scan:
        cmd.scan_len = static_cast<std::uint32_t>(r.varint());
        break;
      case KvOp::Get:
      case KvOp::Delete:
        break;
    }
    return cmd;
  }
};

/// KvResult's layout, written at its exact size: the status, the number of
/// values, then each value, in the order `for_each_value(f)` calls f with
/// them. It is called twice, to size the buffer and to fill it.
template <typename ForEachValue>
std::vector<std::byte> encode_result(KvResult::Status status,
                                     const ForEachValue& for_each_value) {
  std::size_t count = 0;
  std::size_t bytes = 0;
  for_each_value([&](std::string_view value) {
    ++count;
    bytes += str_size(value);
  });
  ByteWriter w;
  w.reserve(1 + varint_size(count) + bytes);
  w.u8(static_cast<std::uint8_t>(status));
  w.varint(count);
  for_each_value([&w](std::string_view value) { w.str(value); });
  return w.take();
}

std::vector<std::byte> bare_result(KvResult::Status status) {
  return encode_result(status, [](const auto&) {});
}

}  // namespace

std::uint64_t kv_hash(std::string_view key, std::uint64_t seed) {
  std::uint64_t h = seed ^ key.size();
  const char* p = key.data();
  std::size_t n = key.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    h = splitmix64(h ^ word);
  }
  std::uint64_t tail = 0;
  if (n > 0) std::memcpy(&tail, p, n);
  return splitmix64(h ^ tail);
}

std::vector<std::byte> KvCommand::encode() const {
  ByteWriter w;
  w.reserve(key.size() + value.size() + 16);
  w.u8(static_cast<std::uint8_t>(op));
  w.str(key);
  switch (op) {
    case KvOp::Put:
      w.str(value);
      break;
    case KvOp::Scan:
      w.varint(scan_len);
      break;
    case KvOp::Get:
    case KvOp::Delete:
      break;
  }
  return w.take();
}

KvCommand KvCommand::decode(std::span<const std::byte> data) {
  const KvCommandView view = KvCommandView::parse(data);
  return KvCommand{view.op, std::string(view.key), std::string(view.value), view.scan_len};
}

std::vector<std::byte> KvResult::encode() const {
  return encode_result(status, [this](const auto& f) {
    for (const std::string& value : values) f(value);
  });
}

KvResult KvResult::decode(std::span<const std::byte> data) {
  ByteReader r(data);
  KvResult res;
  res.status = static_cast<Status>(r.u8());
  auto n = r.varint();
  res.values.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) res.values.push_back(r.str());
  return res;
}

// ---------------------------------------------------------------------------
// KvArena
// ---------------------------------------------------------------------------

std::uint32_t KvArena::append(std::string_view key, std::string_view value) {
  const std::size_t room = kMaxBytes - bytes_.size();
  if (key.size() > room || value.size() > room - key.size()) {
    throw std::length_error("KvArena: full");
  }
  const std::size_t end = bytes_.size() + key.size() + value.size();
  // Grow once, up front, so neither insert below can throw halfway.
  if (end > bytes_.capacity()) {
    bytes_.reserve(std::min(std::max(end, 2 * bytes_.capacity()), kMaxBytes));
  }
  const auto offset = static_cast<std::uint32_t>(bytes_.size());
  bytes_.insert(bytes_.end(), key.begin(), key.end());
  bytes_.insert(bytes_.end(), value.begin(), value.end());
  return offset;
}

// ---------------------------------------------------------------------------
// KvStore
// ---------------------------------------------------------------------------

std::uint64_t KvStore::fresh_seed() {
  // Keys come from clients, so the hash must not be one they can aim at: a
  // random value per process, stepped for each store. The index layout
  // never shows in results, snapshots or Scan order, so neither does the
  // seed.
  static const std::uint64_t process_seed = [] {
    std::random_device device;
    return std::uint64_t{device()} << 32 | device();
  }();
  static std::atomic<std::uint64_t> stores{0};
  return splitmix64(process_seed + stores.fetch_add(1, std::memory_order_relaxed));
}

std::vector<std::byte> KvStore::execute(std::span<const std::byte> command) {
  KvCommandView cmd;
  try {
    cmd = KvCommandView::parse(command);
  } catch (const CodecError&) {
    return bare_result(KvResult::Status::BadRequest);
  }

  switch (cmd.op) {
    case KvOp::Get: {
      const std::uint32_t id = find(cmd.key);
      if (id == kNoRecord) return bare_result(KvResult::Status::NotFound);
      return encode_result(KvResult::Status::Ok, [this, id](const auto& f) { f(value_of(id)); });
    }
    case KvOp::Put:
      upsert(cmd.key, cmd.value, /*overwrite=*/true);
      return bare_result(KvResult::Status::Ok);
    case KvOp::Delete:
      return bare_result(erase(cmd.key) ? KvResult::Status::Ok : KvResult::Status::NotFound);
    case KvOp::Scan: {
      tidy_order();
      const Position start = seek(cmd.key);
      return encode_result(KvResult::Status::Ok, [&](const auto& f) {
        std::uint32_t left = cmd.scan_len;
        for (Position p = start; left > 0 && p.chunk < chunks_.size(); ++p.chunk, p.at = 0) {
          const std::vector<std::uint32_t>& chunk = chunks_[p.chunk];
          for (; left > 0 && p.at < chunk.size(); ++p.at, --left) f(value_of(chunk[p.at]));
        }
      });
    }
  }
  return bare_result(KvResult::Status::BadRequest);
}

std::vector<std::byte> KvStore::snapshot() const {
  // A state transfer serializes the whole store: size the buffer exactly so
  // the snapshot is one allocation plus memcpy-sized appends.
  tidy_order();
  std::size_t bytes = varint_size(live_);
  for (const auto& chunk : chunks_) {
    for (std::uint32_t id : chunk) bytes += str_size(key_of(id)) + str_size(value_of(id));
  }
  ByteWriter w;
  w.reserve(bytes);
  w.varint(live_);
  for (const auto& chunk : chunks_) {
    for (std::uint32_t id : chunk) {
      w.str(key_of(id));
      w.str(value_of(id));
    }
  }
  return w.take();
}

void KvStore::restore(std::span<const std::byte> snapshot) {
  // Decode into a fresh store and swap, so a malformed snapshot leaves this
  // one untouched.
  ByteReader r(snapshot);
  KvStore fresh;
  const std::uint64_t n = r.varint();
  // Every record takes at least its two length bytes, so a count the
  // snapshot cannot hold reserves no more than the snapshot can.
  fresh.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, r.remaining() / 2)),
                r.remaining());
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::string_view key = r.str_view();
    fresh.upsert(key, r.str_view(), /*overwrite=*/false);
  }
  *this = std::move(fresh);
}

Duration KvStore::execution_cost(std::span<const std::byte> command) const {
  Duration cost = kExecutionBase;
  try {
    const KvCommandView cmd = KvCommandView::parse(command);
    if (cmd.op == KvOp::Put) {
      cost += static_cast<Duration>(kNsPerValueByte * static_cast<double>(cmd.value.size()));
    } else if (cmd.op == KvOp::Scan) {
      cost += static_cast<Duration>(cmd.scan_len) * kPerScanEntry;
    }
  } catch (const CodecError&) {
    // Malformed commands still pay the base cost.
  }
  return cost;
}

std::optional<std::string> KvStore::get(std::string_view key) const {
  const std::uint32_t id = find(key);
  if (id == kNoRecord) return std::nullopt;
  return std::string(value_of(id));
}

void KvStore::put(std::string_view key, std::string_view value) {
  upsert(key, value, /*overwrite=*/true);
}

std::vector<std::pair<std::string, std::string>> KvStore::entries() const {
  tidy_order();
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(live_);
  for (const auto& chunk : chunks_) {
    for (std::uint32_t id : chunk) out.emplace_back(key_of(id), value_of(id));
  }
  return out;
}

std::size_t KvStore::longest_probe() const {
  const std::size_t mask = index_.size() - 1;
  std::size_t longest = 0;
  for (std::size_t i = 0; i < index_.size(); ++i) {
    if (index_[i].id != kNoRecord) longest = std::max(longest, ((i - index_[i].tag) & mask) + 1);
  }
  return longest;
}

std::size_t KvStore::probe(std::string_view key, std::uint32_t tag) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
    const Slot& slot = index_[i];
    if (slot.id == kNoRecord || (slot.tag == tag && key_of(slot.id) == key)) return i;
  }
}

std::uint32_t KvStore::find(std::string_view key) const {
  if (live_ == 0) return kNoRecord;
  return index_[probe(key, tag_of(key))].id;
}

void KvStore::upsert(std::string_view key, std::string_view value, bool overwrite) {
  if ((live_ + 1) * 4 > index_.size() * 3) grow_index(std::max<std::size_t>(16, 2 * index_.size()));
  const std::uint32_t tag = tag_of(key);
  Slot& slot = index_[probe(key, tag)];
  if (slot.id != kNoRecord) {
    if (!overwrite) return;
    Record& record = records_[slot.id];
    if (value.size() <= record.value_cap) {
      if (!value.empty()) {
        std::memcpy(arena_.at(record.offset + record.key_len), value.data(), value.size());
      }
    } else {
      // Outgrown: the record moves to the arena's end and its old bytes
      // become garbage.
      record.offset = append(key, value);
      record.value_cap = static_cast<std::uint32_t>(value.size());
    }
    live_bytes_ = live_bytes_ - record.value_len + value.size();
    record.value_len = static_cast<std::uint32_t>(value.size());
    compact_if_sparse();
    return;
  }

  slot = Slot{add_record(key, value), tag};
}

std::uint32_t KvStore::add_record(std::string_view key, std::string_view value) {
  const std::uint32_t offset = append(key, value);
  const Record record{offset, static_cast<std::uint32_t>(key.size()),
                      static_cast<std::uint32_t>(value.size()),
                      static_cast<std::uint32_t>(value.size())};
  std::uint32_t id;
  if (free_.empty()) {
    id = static_cast<std::uint32_t>(records_.size());
    records_.push_back(record);
  } else {
    id = free_.back();
    free_.pop_back();
    records_[id] = record;
  }
  // Keys arriving in order (a restore, a load) extend the last chunk;
  // any other waits in the tail for the next ordered read.
  if (tail_.empty() && (chunks_.empty() || key_of(chunks_.back().back()) < key)) {
    if (chunks_.empty() || chunks_.back().size() == kChunk) {
      chunks_.emplace_back().reserve(kChunk);
    }
    chunks_.back().push_back(id);
  } else {
    tail_.push_back(id);
  }
  ++live_;
  live_bytes_ += key.size() + value.size();
  return id;
}

bool KvStore::erase(std::string_view key) {
  if (live_ == 0) return false;
  std::size_t hole = probe(key, tag_of(key));
  const std::uint32_t id = index_[hole].id;
  if (id == kNoRecord) return false;
  // Backward-shift deletion: pull each later slot of the probe run into the
  // hole when its home lies at or before the hole, so no tombstone is needed.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t next = (hole + 1) & mask; index_[next].id != kNoRecord;
       next = (next + 1) & mask) {
    const std::size_t home = index_[next].tag & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = Slot{};

  // The id leaves the key order now, so the order holds only live
  // records and the id is free at once.
  tidy_order();
  const Position p = seek(key);
  std::vector<std::uint32_t>& chunk = chunks_[p.chunk];
  chunk.erase(chunk.begin() + static_cast<std::ptrdiff_t>(p.at));
  if (chunk.empty()) chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(p.chunk));
  free_.push_back(id);

  Record& record = records_[id];
  live_bytes_ -= record.key_len + record.value_len;
  record.offset = kDeleted;
  --live_;
  compact_if_sparse();
  return true;
}

void KvStore::reserve(std::size_t records, std::size_t bytes) {
  records_.reserve(records);
  chunks_.reserve(records / kChunk + 1);
  arena_.reserve(bytes);
  std::size_t capacity = 16;
  while (capacity * 3 < records * 4) capacity *= 2;
  if (capacity > index_.size()) grow_index(capacity);
}

void KvStore::grow_index(std::size_t capacity) {
  std::vector<Slot> fresh(capacity);
  for (const Slot& slot : index_) {
    if (slot.id != kNoRecord) place(fresh, slot);
  }
  index_ = std::move(fresh);
}

void KvStore::place(std::vector<Slot>& index, Slot slot) {
  const std::size_t mask = index.size() - 1;
  std::size_t i = slot.tag & mask;
  while (index[i].id != kNoRecord) i = (i + 1) & mask;
  index[i] = slot;
}

std::uint32_t KvStore::append(std::string_view key, std::string_view value) {
  // Full: compaction packs the arena down to the live bytes, a function of
  // the contents alone, so every replica refuses the same write.
  if (!arena_.fits(key.size() + value.size())) compact();
  return arena_.append(key, value);
}

void KvStore::compact_if_sparse() {
  // Compacting once garbage outweighs the live bytes copies each live byte
  // at most once per byte of garbage made: amortised O(1) per write.
  if (arena_.size() - live_bytes_ > live_bytes_) compact();
}

void KvStore::compact() {
  KvArena fresh;
  fresh.reserve(live_bytes_);
  for (Record& record : records_) {
    if (record.offset == kDeleted) continue;
    const std::string_view key = arena_.view(record.offset, record.key_len);
    const std::string_view value = arena_.view(record.offset + record.key_len, record.value_len);
    record.offset = fresh.append(key, value);
    record.value_cap = record.value_len;
  }
  arena_ = std::move(fresh);
}

KvStore::Position KvStore::seek(std::string_view key) const {
  const auto chunk = std::partition_point(
      chunks_.begin(), chunks_.end(),
      [this, key](const std::vector<std::uint32_t>& c) { return key_of(c.back()) < key; });
  if (chunk == chunks_.end()) return {chunks_.size(), 0};
  const auto at = std::partition_point(chunk->begin(), chunk->end(),
                                       [this, key](std::uint32_t id) { return key_of(id) < key; });
  return {static_cast<std::size_t>(chunk - chunks_.begin()),
          static_cast<std::size_t>(at - chunk->begin())};
}

void KvStore::place_in_order(std::uint32_t id) const {
  if (chunks_.empty()) {
    chunks_.emplace_back().reserve(kChunk);
    chunks_.back().push_back(id);
    return;
  }
  Position p = seek(key_of(id));
  if (p.chunk == chunks_.size()) p = {chunks_.size() - 1, chunks_.back().size()};
  if (chunks_[p.chunk].size() == kChunk) {
    // Full: its upper half becomes the next chunk.
    std::vector<std::uint32_t>& full = chunks_[p.chunk];
    std::vector<std::uint32_t> upper;
    upper.reserve(kChunk);
    upper.assign(full.begin() + kChunk / 2, full.end());
    full.resize(kChunk / 2);
    chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(p.chunk) + 1, std::move(upper));
    if (p.at > kChunk / 2) p = {p.chunk + 1, p.at - kChunk / 2};
  }
  std::vector<std::uint32_t>& chunk = chunks_[p.chunk];
  chunk.insert(chunk.begin() + static_cast<std::ptrdiff_t>(p.at), id);
}

void KvStore::tidy_order() const {
  // Each id costs O(log n) comparisons and moves at most a chunk's ids.
  for (std::uint32_t id : tail_) place_in_order(id);
  tail_.clear();
}

}  // namespace idem::app
