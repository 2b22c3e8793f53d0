// Unit tests for the application substrate: KV store state machine,
// command codec, snapshots, and the YCSB workload generator.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <charconv>
#include <map>
#include <stdexcept>

#include "app/kv_store.hpp"
#include "app/ycsb.hpp"
#include "common/codec.hpp"
#include "common/rng.hpp"

namespace idem::app {
namespace {

// ---------------------------------------------------------------------------
// KvCommand / KvResult codec
// ---------------------------------------------------------------------------

TEST(KvCodec, PutRoundTrip) {
  KvCommand cmd;
  cmd.op = KvOp::Put;
  cmd.key = "user42";
  cmd.value = std::string(100, 'v');
  KvCommand back = KvCommand::decode(cmd.encode());
  EXPECT_EQ(back.op, KvOp::Put);
  EXPECT_EQ(back.key, cmd.key);
  EXPECT_EQ(back.value, cmd.value);
}

TEST(KvCodec, GetRoundTrip) {
  KvCommand cmd;
  cmd.op = KvOp::Get;
  cmd.key = "k";
  KvCommand back = KvCommand::decode(cmd.encode());
  EXPECT_EQ(back.op, KvOp::Get);
  EXPECT_EQ(back.key, "k");
}

TEST(KvCodec, ScanRoundTrip) {
  KvCommand cmd;
  cmd.op = KvOp::Scan;
  cmd.key = "user1";
  cmd.scan_len = 55;
  KvCommand back = KvCommand::decode(cmd.encode());
  EXPECT_EQ(back.op, KvOp::Scan);
  EXPECT_EQ(back.scan_len, 55u);
}

TEST(KvCodec, ResultRoundTrip) {
  KvResult res;
  res.status = KvResult::Status::Ok;
  res.values = {"a", "bb", "ccc"};
  KvResult back = KvResult::decode(res.encode());
  EXPECT_TRUE(back.ok());
  EXPECT_EQ(back.values, res.values);
}

// ---------------------------------------------------------------------------
// KvStore
// ---------------------------------------------------------------------------

TEST(KvStore, PutThenGet) {
  KvStore store;
  KvCommand put;
  put.op = KvOp::Put;
  put.key = "k";
  put.value = "v";
  EXPECT_TRUE(KvResult::decode(store.execute(put.encode())).ok());

  KvCommand get;
  get.op = KvOp::Get;
  get.key = "k";
  KvResult res = KvResult::decode(store.execute(get.encode()));
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.values.size(), 1u);
  EXPECT_EQ(res.values[0], "v");
}

TEST(KvStore, GetMissingIsNotFound) {
  KvStore store;
  KvCommand get;
  get.op = KvOp::Get;
  get.key = "missing";
  KvResult res = KvResult::decode(store.execute(get.encode()));
  EXPECT_EQ(res.status, KvResult::Status::NotFound);
}

TEST(KvStore, DeleteRemoves) {
  KvStore store;
  store.put("k", "v");
  KvCommand del;
  del.op = KvOp::Delete;
  del.key = "k";
  EXPECT_TRUE(KvResult::decode(store.execute(del.encode())).ok());
  EXPECT_FALSE(store.get("k").has_value());
  // Deleting again reports NotFound.
  EXPECT_EQ(KvResult::decode(store.execute(del.encode())).status,
            KvResult::Status::NotFound);
}

TEST(KvStore, ScanReturnsOrderedRange) {
  KvStore store;
  store.put("a", "1");
  store.put("b", "2");
  store.put("c", "3");
  store.put("d", "4");
  KvCommand scan;
  scan.op = KvOp::Scan;
  scan.key = "b";
  scan.scan_len = 2;
  KvResult res = KvResult::decode(store.execute(scan.encode()));
  ASSERT_EQ(res.values.size(), 2u);
  EXPECT_EQ(res.values[0], "2");
  EXPECT_EQ(res.values[1], "3");
}

TEST(KvStore, MalformedCommandIsBadRequest) {
  KvStore store;
  std::vector<std::byte> garbage = {std::byte{2}};  // Put with no key
  KvResult res = KvResult::decode(store.execute(garbage));
  EXPECT_EQ(res.status, KvResult::Status::BadRequest);
}

TEST(KvStore, SnapshotRestoreRoundTrip) {
  KvStore store;
  for (int i = 0; i < 100; ++i) store.put("k" + std::to_string(i), "v" + std::to_string(i));
  auto snapshot = store.snapshot();

  KvStore other;
  other.put("stale", "data");
  other.restore(snapshot);
  EXPECT_EQ(other.size(), 100u);
  EXPECT_FALSE(other.get("stale").has_value());
  EXPECT_EQ(other.get("k42"), "v42");
}

TEST(KvStore, SnapshotIsCanonical) {
  // Same contents inserted in different orders serialize identically —
  // required for checkpoint comparison across replicas.
  KvStore a, b;
  a.put("x", "1");
  a.put("y", "2");
  b.put("y", "2");
  b.put("x", "1");
  EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(KvStore, ExecutionIsDeterministic) {
  KvStore a, b;
  Rng rng(9, 9);
  std::vector<std::vector<std::byte>> commands;
  YcsbConfig cfg;
  cfg.record_count = 50;
  YcsbWorkload workload(cfg, rng);
  for (int i = 0; i < 500; ++i) commands.push_back(workload.next_operation().encode());
  for (const auto& cmd : commands) {
    EXPECT_EQ(a.execute(cmd), b.execute(cmd));
  }
  EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(KvStore, ExecutionCostScalesWithValueSize) {
  KvStore store;
  KvCommand small;
  small.op = KvOp::Put;
  small.key = "k";
  small.value = "v";
  KvCommand big = small;
  big.value = std::string(10'000, 'v');
  EXPECT_GT(store.execution_cost(big.encode()), store.execution_cost(small.encode()));
}

// The flat store against an ordered-map model of the same contents.

using Reference = std::map<std::string, std::string>;

std::vector<std::byte> reference_result(Reference& ref, const KvCommand& cmd) {
  KvResult res;
  switch (cmd.op) {
    case KvOp::Get:
      if (auto it = ref.find(cmd.key); it != ref.end()) {
        res.values.push_back(it->second);
      } else {
        res.status = KvResult::Status::NotFound;
      }
      break;
    case KvOp::Put:
      ref[cmd.key] = cmd.value;
      break;
    case KvOp::Delete:
      if (ref.erase(cmd.key) == 0) res.status = KvResult::Status::NotFound;
      break;
    case KvOp::Scan:
      for (auto it = ref.lower_bound(cmd.key); it != ref.end() && res.values.size() < cmd.scan_len;
           ++it) {
        res.values.push_back(it->second);
      }
      break;
  }
  return res.encode();
}

std::vector<std::byte> reference_snapshot(const Reference& ref) {
  ByteWriter w;
  w.varint(ref.size());
  for (const auto& [key, value] : ref) {
    w.str(key);
    w.str(value);
  }
  return w.take();
}

TEST(KvStore, MatchesAnOrderedMapReference) {
  // Seeded Get/Put/Delete/Scan over 1,500 keys of mixed lengths (some with
  // bytes above 0x7f, which std::string orders as unsigned), values of 0 to
  // 48 bytes that now and then grow to a few kB past their slot. The key
  // space grows the index from its first 16 slots; inserts land out of
  // order, and deletes come between scans.
  Rng rng(29, 1);
  std::vector<std::string> keys;
  for (int i = 0; i < 1500; ++i) {
    std::string key = "k" + std::to_string(splitmix64(static_cast<std::uint64_t>(i)) % 100'000);
    if (i % 7 == 0) key += static_cast<char>(0x80 + i % 100);
    if (i % 11 == 0) key = key.substr(0, 2);
    keys.push_back(std::move(key));
  }
  auto random_value = [&rng] {
    const auto size = static_cast<std::size_t>(
        rng.next_double() < 0.05 ? rng.uniform_int(100, 3000) : rng.uniform_int(0, 48));
    return std::string(size, static_cast<char>('a' + rng.uniform_int(0, 25)));
  };

  KvStore store;
  Reference ref;
  std::size_t live_bytes = 0;  // the reference's key and value bytes
  std::size_t peak_size = 0;
  for (int step = 0; step < 40'000; ++step) {
    KvCommand cmd;
    cmd.key = keys[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(keys.size()) - 1))];
    const double dice = rng.next_double();
    // Mostly writes early on so the store fills, then a steady mix.
    const double put_share = step < 10'000 ? 0.8 : 0.35;
    if (dice < put_share) {
      cmd.op = KvOp::Put;
      cmd.value = random_value();
    } else if (dice < put_share + 0.25) {
      cmd.op = KvOp::Delete;
    } else if (dice < put_share + 0.3) {
      cmd.op = KvOp::Scan;
      cmd.scan_len = static_cast<std::uint32_t>(rng.uniform_int(0, 40));
    } else {
      cmd.op = KvOp::Get;
    }
    const bool writes = cmd.op == KvOp::Put || cmd.op == KvOp::Delete;
    if (auto it = ref.find(cmd.key); writes && it != ref.end()) {
      live_bytes -= it->first.size() + it->second.size();
    }
    if (cmd.op == KvOp::Put) live_bytes += cmd.key.size() + cmd.value.size();
    ASSERT_EQ(store.execute(cmd.encode()), reference_result(ref, cmd)) << "step " << step;
    peak_size = std::max(peak_size, ref.size());
    // Space that deletes and outgrown values leave behind is reclaimed.
    ASSERT_LE(store.arena_bytes(), 2 * live_bytes) << "step " << step;

    if (step % 2'500 == 0) {
      ASSERT_EQ(store.size(), ref.size());
      const std::vector<std::byte> snapshot = store.snapshot();
      ASSERT_EQ(snapshot, reference_snapshot(ref)) << "step " << step;
      ASSERT_EQ(store.entries(),
                (std::vector<std::pair<std::string, std::string>>(ref.begin(), ref.end())));
      KvStore copy;
      copy.put("stale", "x");
      copy.restore(snapshot);
      ASSERT_EQ(copy.snapshot(), snapshot);
      ASSERT_EQ(copy.size(), ref.size());
    }
  }
  EXPECT_GT(peak_size, 1000u);
  EXPECT_LT(ref.size(), peak_size);  // deletes emptied part of it again

  // Then every key goes, in random order, with a Scan after each delete:
  // the key order empties chunk by chunk.
  std::vector<std::string> left;
  for (const auto& entry : ref) left.push_back(entry.first);
  for (std::size_t i = left.size(); i > 1; --i) {
    std::swap(left[i - 1], left[static_cast<std::size_t>(
                               rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  for (const std::string& key : left) {
    KvCommand del;
    del.op = KvOp::Delete;
    del.key = key;
    ASSERT_EQ(store.execute(del.encode()), reference_result(ref, del));
    KvCommand scan;
    scan.op = KvOp::Scan;
    scan.key = keys[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(keys.size()) - 1))];
    scan.scan_len = 40;
    ASSERT_EQ(store.execute(scan.encode()), reference_result(ref, scan)) << "after " << key;
  }
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.snapshot(), reference_snapshot(ref));
}

TEST(KvStore, RestoreKeepsTheFirstValueOfARepeatedKey) {
  // Out of order, with "a" twice: the first value wins, and the store
  // snapshots canonically.
  ByteWriter w;
  w.varint(4);
  for (const char* field : {"b", "2", "a", "1", "c", "3", "a", "4"}) w.str(field);
  KvStore store;
  store.restore(w.take());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.get("a"), "1");
  EXPECT_EQ(store.snapshot(), reference_snapshot({{"a", "1"}, {"b", "2"}, {"c", "3"}}));
}

TEST(KvStore, TruncatedSnapshotLeavesTheStoreUntouched) {
  KvStore source;
  for (int i = 0; i < 50; ++i) source.put("key" + std::to_string(i), std::string(i, 'v'));
  const std::vector<std::byte> snapshot = source.snapshot();

  KvStore store;
  store.put("mine", "kept");
  const std::vector<std::byte> before = store.snapshot();
  for (std::size_t cut = 0; cut < snapshot.size(); cut += 7) {
    const std::span<const std::byte> truncated(snapshot.data(), cut);
    EXPECT_THROW(store.restore(truncated), CodecError) << "cut at " << cut;
    EXPECT_EQ(store.snapshot(), before);
  }
  store.restore(snapshot);
  EXPECT_EQ(store.snapshot(), snapshot);
}

/// Address space for views longer than any buffer a test could fill:
/// mapped without access, so nothing backs it and a read through it faults.
class Unreadable {
 public:
  explicit Unreadable(std::size_t bytes)
      : bytes_(bytes),
        data_(mmap(nullptr, bytes, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1,
                   0)) {}
  ~Unreadable() {
    if (data_ != MAP_FAILED) munmap(data_, bytes_);
  }
  Unreadable(const Unreadable&) = delete;
  Unreadable& operator=(const Unreadable&) = delete;

  bool mapped() const { return data_ != MAP_FAILED; }
  std::string_view view() const { return {static_cast<const char*>(data_), bytes_}; }

 private:
  std::size_t bytes_;
  void* data_;
};

TEST(KvArena, OffsetsAreCheckedAndNeverWrap) {
  // Offsets are 32 bits: the arena stops below UINT32_MAX, which marks a
  // deleted record. append checks lengths before it reads a byte, so views
  // of unreadable address space reach the check without 4 GiB behind them.
  EXPECT_LT(KvArena::kMaxBytes, std::size_t{0xFFFFFFFF});
  const Unreadable space(KvArena::kMaxBytes + 1);
  ASSERT_TRUE(space.mapped());
  const std::string_view huge = space.view();

  KvArena arena;
  EXPECT_EQ(arena.append(std::string(20, 'k'), std::string(30, 'v')), 0u);
  EXPECT_TRUE(arena.fits(KvArena::kMaxBytes - 50));
  EXPECT_FALSE(arena.fits(KvArena::kMaxBytes - 49));
  EXPECT_THROW(arena.append(huge, ""), std::length_error);
  EXPECT_THROW(arena.append("", huge), std::length_error);
  // Each length fits on its own; together they pass the cap by one byte.
  EXPECT_THROW(arena.append(huge.substr(0, 1000), huge.substr(0, KvArena::kMaxBytes - 1049)),
               std::length_error);
  EXPECT_EQ(arena.size(), 50u);  // a refused append leaves nothing behind
  EXPECT_EQ(arena.append("key", "value"), 50u);
  EXPECT_EQ(arena.view(50, 8), "keyvalue");
}

TEST(KvStore, AWriteTheArenaCannotHoldIsRefusedAndChangesNothing) {
  // The store compacts before it refuses, so the refusal depends on the
  // live bytes alone, then throws with every record as it was.
  KvStore store;
  for (int i = 0; i < 100; ++i) store.put("key" + std::to_string(i), std::string(50, 'v'));
  store.put("key7", std::string(500, 'w'));  // outgrown: its old bytes are garbage
  const std::vector<std::byte> before = store.snapshot();
  std::size_t live_bytes = 0;
  for (const auto& [key, value] : store.entries()) live_bytes += key.size() + value.size();
  ASSERT_GT(store.arena_bytes(), live_bytes);

  const Unreadable space(KvArena::kMaxBytes);
  ASSERT_TRUE(space.mapped());
  const std::string_view huge = space.view();
  EXPECT_THROW(store.put("key7", huge), std::length_error);
  EXPECT_EQ(store.arena_bytes(), live_bytes);  // compacted first
  EXPECT_THROW(store.put("new", huge), std::length_error);
  EXPECT_EQ(store.snapshot(), before);
  EXPECT_EQ(store.size(), 100u);
  EXPECT_EQ(store.get("new"), std::nullopt);
  store.put("new", "fits");
  EXPECT_EQ(store.get("new"), "fits");
}

TEST(KvStore, KeysThatShareAHomeSlotUnderAKnownSeedSpreadInAStore) {
  // A client that knew the index's hash could send keys that share one
  // home slot, and every replica would walk one long probe run for each
  // of them. These 512 keys share the low 12 bits of their hash under seed
  // 0, so under it they would all start at slot 0 of the 1,024 slots that
  // 512 keys get. The store draws its own seed and spreads them.
  std::vector<std::string> keys;
  char buf[24];
  for (std::uint64_t i = 0; keys.size() < 512; ++i) {
    const std::string_view key(buf, static_cast<std::size_t>(
                                        std::to_chars(buf, buf + sizeof buf, i).ptr - buf));
    if ((kv_hash(key, 0) & 0xfff) == 0) keys.emplace_back(key);
  }
  KvStore store;
  for (const std::string& key : keys) store.put(key, "v");
  // At half load the longest run of linear probing passes 128 slots with
  // probability below 1e-7; one shared home slot would make it 512.
  EXPECT_LT(store.longest_probe(), 128u);
  for (const std::string& key : keys) EXPECT_EQ(store.get(key), "v");
}

// ---------------------------------------------------------------------------
// Zipfian generator
// ---------------------------------------------------------------------------

TEST(Zipfian, ValuesInRange) {
  Rng rng(1, 1);
  ZipfianGenerator zipf(1000);
  for (int i = 0; i < 10'000; ++i) {
    auto v = zipf.next(rng);
    EXPECT_LT(v, 1000u);
  }
}

TEST(Zipfian, SkewedTowardsLowRanks) {
  Rng rng(2, 2);
  ZipfianGenerator zipf(10'000, 0.99);
  std::map<std::uint64_t, int> counts;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[zipf.next(rng)];
  // Rank 0 should receive far more than uniform share (10/100k).
  EXPECT_GT(counts[0], n / 100);
  // Roughly monotone: rank 0 >> rank 100.
  EXPECT_GT(counts[0], counts[100] * 2);
}

TEST(Zipfian, SingleItemAlwaysZero) {
  Rng rng(3, 3);
  ZipfianGenerator zipf(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.next(rng), 0u);
}

// ---------------------------------------------------------------------------
// YCSB workload
// ---------------------------------------------------------------------------

TEST(Ycsb, UpdateHeavyMix) {
  Rng rng(4, 4);
  YcsbConfig cfg = YcsbConfig::update_heavy();
  cfg.record_count = 100;
  YcsbWorkload workload(cfg, rng);
  int reads = 0, updates = 0;
  const int n = 10'000;
  for (int i = 0; i < n; ++i) {
    KvCommand cmd = workload.next_operation();
    if (cmd.op == KvOp::Get) ++reads;
    if (cmd.op == KvOp::Put) ++updates;
  }
  EXPECT_NEAR(static_cast<double>(reads) / n, 0.5, 0.03);
  EXPECT_NEAR(static_cast<double>(updates) / n, 0.5, 0.03);
}

TEST(Ycsb, LoadPhaseCoversAllRecords) {
  Rng rng(5, 5);
  YcsbConfig cfg;
  cfg.record_count = 200;
  YcsbWorkload workload(cfg, rng);
  const std::vector<std::byte> image = YcsbWorkload::load_image(cfg);
  KvStore store;
  store.restore(image);
  // Keys may collide only if the scrambling maps two records together;
  // allow a tiny number of collisions.
  EXPECT_GE(store.size(), 195u);
  for (std::uint64_t i = 0; i < cfg.record_count; ++i) {
    EXPECT_EQ(store.get(workload.key_for(i)), std::string(cfg.value_size, 'x'));
  }
  // The image is the canonical snapshot of the loaded store.
  EXPECT_EQ(store.snapshot(), image);
}

TEST(Ycsb, RunPhaseKeysExistAfterLoad) {
  Rng rng(6, 6);
  YcsbConfig cfg;
  cfg.record_count = 100;
  YcsbWorkload workload(cfg, rng);
  KvStore store;
  store.restore(YcsbWorkload::load_image(cfg));
  for (int i = 0; i < 1000; ++i) {
    KvCommand cmd = workload.next_operation();
    if (cmd.op == KvOp::Get) {
      EXPECT_TRUE(store.get(cmd.key).has_value()) << cmd.key;
    }
  }
}

TEST(Ycsb, ValueSizeRespected) {
  Rng rng(7, 7);
  YcsbConfig cfg;
  cfg.value_size = 321;
  cfg.read_proportion = 0;
  cfg.update_proportion = 1;
  YcsbWorkload workload(cfg, rng);
  KvCommand cmd = workload.next_operation();
  EXPECT_EQ(cmd.value.size(), 321u);
}

TEST(Ycsb, UniformDistributionOption) {
  Rng rng(8, 8);
  YcsbConfig cfg;
  cfg.distribution = KeyDistribution::Uniform;
  cfg.record_count = 10;
  cfg.read_proportion = 1;
  cfg.update_proportion = 0;
  YcsbWorkload workload(cfg, rng);
  std::map<std::string, int> counts;
  for (int i = 0; i < 10'000; ++i) ++counts[workload.next_operation().key];
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [key, count] : counts) {
    EXPECT_NEAR(count, 1000, 200) << key;
  }
}


TEST(Ycsb, WorkloadPresetMixes) {
  struct Case {
    YcsbConfig config;
    double read, update, insert, scan;
  };
  const Case cases[] = {
      {YcsbConfig::update_heavy(), 0.5, 0.5, 0.0, 0.0},
      {YcsbConfig::read_heavy(), 0.95, 0.05, 0.0, 0.0},
      {YcsbConfig::read_only(), 1.0, 0.0, 0.0, 0.0},
      {YcsbConfig::read_latest(), 0.95, 0.0, 0.05, 0.0},
      {YcsbConfig::scan_heavy(), 0.0, 0.0, 0.05, 0.95},
  };
  int case_index = 0;
  for (const Case& c : cases) {
    Rng rng(100 + case_index, 1);
    YcsbConfig config = c.config;
    config.record_count = 100;
    YcsbWorkload workload(config, rng);
    int reads = 0, writes = 0, scans = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
      KvCommand cmd = workload.next_operation();
      if (cmd.op == KvOp::Get) ++reads;
      if (cmd.op == KvOp::Put) ++writes;
      if (cmd.op == KvOp::Scan) ++scans;
    }
    EXPECT_NEAR(double(reads) / n, c.read, 0.03) << "case " << case_index;
    EXPECT_NEAR(double(writes) / n, c.update + c.insert, 0.03) << "case " << case_index;
    EXPECT_NEAR(double(scans) / n, c.scan, 0.03) << "case " << case_index;
    ++case_index;
  }
}

TEST(Ycsb, LatestDistributionSkewsToRecentRecords) {
  // With a fixed anchor (no inserts), "latest" concentrates reads on the
  // records with the highest indices; uniform would give each key ~0.1%.
  Rng rng(55, 2);
  YcsbConfig config = YcsbConfig::read_latest();
  config.insert_proportion = 0.0;
  config.read_proportion = 1.0;
  config.record_count = 1000;
  YcsbWorkload workload(config, rng);
  std::map<std::string, int> reads;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++reads[workload.next_operation().key];

  // The newest record (index 999) must be the single hottest key.
  int newest = reads[workload.key_for(999)];
  EXPECT_GT(double(newest) / n, 0.05);
  // Top-10 newest records take a large share (zipf over recency rank).
  int top10 = 0;
  for (int i = 0; i < 10; ++i) top10 += reads[workload.key_for(999 - i)];
  EXPECT_GT(double(top10) / n, 0.2);
}

}  // namespace
}  // namespace idem::app
