// Sharding subsystem: shard map algebra + JSON, the per-group admission
// gate, the client-side router's redirect protocol, deadline forwarding
// and hop-spanning latency, and the sharded sim harness end-to-end under
// the load driver — multi-group serving, elastic range migration under
// load (linearizable across the epoch flip), and a leader crash in the
// middle of the split handshake.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "check/linearizability.hpp"
#include "common/rng.hpp"
#include "harness/load.hpp"
#include "shard/gate.hpp"
#include "shard/router.hpp"
#include "shard/shard_map.hpp"
#include "shard/sim_cluster.hpp"

namespace idem::shard {
namespace {

std::vector<std::byte> put(const std::string& key, const std::string& value) {
  app::KvCommand cmd;
  cmd.op = app::KvOp::Put;
  cmd.key = key;
  cmd.value = value;
  return cmd.encode();
}

/// Some key owned by `group` under `map` ("k<i>" with the lowest such i).
std::string key_owned_by(const ShardMap& map, GroupId group) {
  for (std::uint64_t i = 0;; ++i) {
    std::string key = "k" + std::to_string(i);
    if (map.group_for_key(key) == group) return key;
  }
}

// --- ShardMap -------------------------------------------------------------

TEST(ShardMap, UniformPartitionCoversTheHashSpace) {
  const ShardMap map = ShardMap::uniform(4);
  EXPECT_TRUE(map.valid());
  EXPECT_EQ(map.epoch(), 1u);
  ASSERT_EQ(map.entries().size(), 4u);
  EXPECT_EQ(map.group_count(), 4u);
  EXPECT_EQ(map.entries()[0].begin, 0u);
  // Stride covers the space: segment i starts at i * ceil(2^64 / 4).
  const std::uint64_t stride = map.entries()[1].begin;
  EXPECT_EQ(map.entries()[2].begin, 2 * stride);
  EXPECT_EQ(map.entries()[3].begin, 3 * stride);
}

TEST(ShardMap, HashRangeBoundariesAreBeginInclusiveEndExclusive) {
  const ShardMap map(1, {{0, 0}, {100, 1}, {200, 2}});
  ASSERT_TRUE(map.valid());
  EXPECT_EQ(map.group_for_hash(0), 0u);
  EXPECT_EQ(map.group_for_hash(99), 0u);
  EXPECT_EQ(map.group_for_hash(100), 1u);  // boundary belongs to the upper segment
  EXPECT_EQ(map.group_for_hash(199), 1u);
  EXPECT_EQ(map.group_for_hash(200), 2u);
  EXPECT_EQ(map.group_for_hash(~0ull), 2u);  // last segment runs to the top
}

TEST(ShardMap, RangeMoveBumpsEpochAndCoalesces) {
  const ShardMap map = ShardMap::uniform(2);
  const std::uint64_t mid = map.entries()[1].begin;

  // Carve the upper quarter of group 0's range over to group 1.
  const ShardMap moved = map.with_range_moved(mid / 2, mid, 1);
  EXPECT_EQ(moved.epoch(), 2u);
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(moved.group_for_hash(mid / 2 - 1), 0u);
  EXPECT_EQ(moved.group_for_hash(mid / 2), 1u);
  EXPECT_EQ(moved.group_for_hash(mid), 1u);
  // [mid/2, mid) -> 1 is adjacent to [mid, top) -> 1: one segment.
  ASSERT_EQ(moved.entries().size(), 2u);

  // Moving it back restores the uniform shape (epoch keeps advancing).
  const ShardMap back = moved.with_range_moved(mid / 2, mid, 0);
  EXPECT_EQ(back.epoch(), 3u);
  ASSERT_EQ(back.entries().size(), 2u);
  EXPECT_EQ(back.entries()[1].begin, mid);
}

TEST(ShardMap, MoveToTopOfSpace) {
  const ShardMap map = ShardMap::uniform(1);
  const ShardMap moved = map.with_range_moved(1ull << 63, 0, 1);  // end 0 = top
  EXPECT_EQ(moved.group_for_hash((1ull << 63) - 1), 0u);
  EXPECT_EQ(moved.group_for_hash(1ull << 63), 1u);
  EXPECT_EQ(moved.group_for_hash(~0ull), 1u);
  EXPECT_EQ(moved.group_count(), 2u);
}

TEST(ShardMap, JsonRoundTripFuzz) {
  Rng rng(20260809, 0);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t segments = 1 + rng.uniform_int(0, 7);
    std::vector<ShardMap::Entry> entries;
    std::uint64_t begin = 0;
    for (std::size_t s = 0; s < segments; ++s) {
      entries.push_back({begin, static_cast<GroupId>(rng.uniform_int(0, 5))});
      // Strictly increasing boundaries, occasionally beyond 2^53 to prove
      // the JSON path does not round large boundaries through doubles.
      begin += 1 + rng.next_u64() / (2 * segments);
      if (begin == 0) break;
    }
    const ShardMap map(1 + rng.uniform_int(0, 100), entries);
    ASSERT_TRUE(map.valid());
    const ShardMap reparsed = ShardMap::parse(map.dump());
    EXPECT_EQ(map, reparsed) << "iteration " << iter << ": " << map.dump();
  }
}

TEST(ShardMap, FromJsonRejectsNonPartitions) {
  EXPECT_THROW(ShardMap::parse(R"({"epoch":1,"ranges":[]})"), json::ParseError);
  // First boundary must be 0.
  EXPECT_THROW(
      ShardMap::parse(R"({"epoch":1,"ranges":[{"begin":5,"group":0}]})"),
      json::ParseError);
  // Boundaries must strictly increase.
  EXPECT_THROW(ShardMap::parse(
                   R"({"epoch":1,"ranges":[{"begin":0,"group":0},{"begin":0,"group":1}]})"),
               json::ParseError);
}

TEST(ShardMap, PeekCommandKeyReadsEncodedCommands) {
  const std::vector<std::byte> encoded = put("user42", "value");
  const auto key = peek_command_key(encoded);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(*key, "user42");

  EXPECT_FALSE(peek_command_key({}).has_value());
  // Truncated: claims a longer key than the buffer holds.
  std::vector<std::byte> truncated(encoded.begin(), encoded.begin() + 2);
  EXPECT_FALSE(peek_command_key(truncated).has_value());
}

TEST(ShardMap, HashIsStable) {
  // FNV-1a 64 + the murmur3 fmix64 finalizer; pinned so maps in artifacts
  // stay valid across platforms and compilers.
  EXPECT_EQ(ShardMap::hash_key(""), 17280346270528514342ull);
  EXPECT_EQ(ShardMap::hash_key("a"), 9413272369427828315ull);
}

// --- GroupShardGate -------------------------------------------------------

TEST(ShardGate, VerdictsFollowTheMap) {
  const ShardMap map = ShardMap::uniform(2);
  GroupShardGate gate(0, map);

  const std::string mine = key_owned_by(map, 0);
  const std::string foreign = key_owned_by(map, 1);

  const auto own = gate.admit(put(mine, "v"));
  EXPECT_EQ(own.kind, core::ShardVerdict::Kind::Mine);

  const auto redirect = gate.admit(put(foreign, "v"));
  EXPECT_EQ(redirect.kind, core::ShardVerdict::Kind::WrongShard);
  EXPECT_EQ(redirect.home_group, 1u);
  EXPECT_EQ(redirect.map_epoch, 1u);

  // Malformed commands are admitted: the state machine owns BadRequest.
  EXPECT_EQ(gate.admit({}).kind, core::ShardVerdict::Kind::Mine);

  gate.freeze();
  EXPECT_EQ(gate.admit(put(mine, "v")).kind, core::ShardVerdict::Kind::Frozen);
  gate.unfreeze();
  EXPECT_EQ(gate.admit(put(mine, "v")).kind, core::ShardVerdict::Kind::Mine);

  const auto stats = gate.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.redirected, 1u);
  EXPECT_EQ(stats.frozen, 1u);
}

TEST(ShardGate, InstallIgnoresStaleEpochs) {
  GroupShardGate gate(0, ShardMap::uniform(2));
  const ShardMap newer = ShardMap::uniform(2).with_range_moved(0, 1000, 1);
  gate.install(newer);
  EXPECT_EQ(gate.epoch(), 2u);
  gate.install(ShardMap::uniform(2));  // epoch 1: late coordinator message
  EXPECT_EQ(gate.epoch(), 2u);
  EXPECT_EQ(gate.map(), newer);
}

// --- ShardRouter ----------------------------------------------------------

/// ServiceClient that always answers WrongShard pointing at `home`,
/// claiming map epoch `epoch`.
class AlwaysWrongShard final : public consensus::ServiceClient {
 public:
  AlwaysWrongShard(GroupId home, std::uint64_t epoch) : home_(home), epoch_(epoch) {}

  void invoke(std::vector<std::byte> command, Callback callback) override {
    (void)command;
    ++invocations;
    consensus::Outcome outcome;
    outcome.kind = consensus::Outcome::Kind::Rejected;
    outcome.redirect_reason = RejectReason::WrongShard;
    outcome.redirect_epoch = epoch_;
    outcome.redirect_group = home_;
    callback(outcome);
  }
  ClientId client_id() const override { return ClientId{0}; }
  bool busy() const override { return false; }

  int invocations = 0;

 private:
  GroupId home_;
  std::uint64_t epoch_;
};

TEST(ShardRouter, StaleEpochRedirectLoopEndsAtTheHopBudget) {
  // Two groups pointing at each other — an inconsistent deployment a
  // router must survive. No map_source: nothing can break the cycle.
  AlwaysWrongShard group0(1, /*epoch=*/1);  // stale epoch: no refresh signal
  AlwaysWrongShard group1(0, /*epoch=*/1);
  ShardRouter router(ShardMap::uniform(2), {&group0, &group1});

  bool done = false;
  router.invoke(put("k", "v"), [&done](const consensus::Outcome& outcome) {
    done = true;
    EXPECT_EQ(outcome.kind, consensus::Outcome::Kind::Rejected);
  });
  ASSERT_TRUE(done);
  EXPECT_FALSE(router.busy());
  // Hop 0 plus ShardRouter::kMaxHops (4) redirects were issued, then the
  // budget ended it.
  EXPECT_EQ(group0.invocations + group1.invocations, 5);
  EXPECT_EQ(router.stats().redirects, 5u);
  EXPECT_EQ(router.stats().redirect_drops, 1u);
}

TEST(ShardRouter, RefreshesFromMapSourceOnNewerEpochRedirects) {
  const ShardMap initial = ShardMap::uniform(2);
  const ShardMap current = initial.with_range_moved(0, 0, 1);  // everything -> group 1

  // Group 0 redirects with the newer epoch; group 1 never sees a call in
  // this test's first phase because the refreshed map routes directly.
  AlwaysWrongShard group0(1, /*epoch=*/2);
  class Replies final : public consensus::ServiceClient {
   public:
    void invoke(std::vector<std::byte>, Callback callback) override {
      ++invocations;
      consensus::Outcome outcome;
      outcome.kind = consensus::Outcome::Kind::Reply;
      callback(outcome);
    }
    ClientId client_id() const override { return ClientId{0}; }
    bool busy() const override { return false; }
    int invocations = 0;
  } group1;

  RouterConfig config;
  config.map_source = [&current] { return current; };
  ShardRouter router(initial, {&group0, &group1}, config);

  bool done = false;
  router.invoke(put(key_owned_by(initial, 0), "v"), [&done](const consensus::Outcome& outcome) {
    done = true;
    EXPECT_EQ(outcome.kind, consensus::Outcome::Kind::Reply);
  });
  ASSERT_TRUE(done);
  EXPECT_EQ(router.map().epoch(), 2u);
  EXPECT_EQ(router.stats().map_refreshes, 1u);

  // The refreshed map routes everything straight to group 1 now.
  const int before = group0.invocations;
  router.invoke(put("other", "v"), [](const consensus::Outcome&) {});
  EXPECT_EQ(group0.invocations, before);
  EXPECT_GE(group1.invocations, 2);
}

/// Answers every operation at once with `next`, and remembers the last
/// latency budget it was handed.
class ScriptedGroup final : public consensus::ServiceClient {
 public:
  void invoke(std::vector<std::byte>, Callback callback) override { callback(next); }
  void set_request_deadline(Duration budget) override { deadline = budget; }
  ClientId client_id() const override { return ClientId{0}; }
  bool busy() const override { return false; }

  consensus::Outcome next;
  Duration deadline = 0;
};

TEST(ShardRouter, ForwardsDeadlinesToEveryGroupClient) {
  // Any group may carry the next operation (or a redirect hop of it), so
  // a budget set on the router must reach all of them.
  ScriptedGroup group0, group1;
  ShardRouter router(ShardMap::uniform(2), {&group0, &group1});
  router.set_request_deadline(7);
  EXPECT_EQ(group0.deadline, 7);
  EXPECT_EQ(group1.deadline, 7);
}

TEST(ShardRouter, LatencySpansEveryHopFromTimeZero) {
  // Hop 0 is issued at t = 0 and redirected at 4; hop 1 goes out at 5 and
  // replies at 9. Time 0 is a real issue time, so the caller must see the
  // whole span 0 -> 9, not just the last hop's 4.
  const ShardMap map = ShardMap::uniform(2);
  ScriptedGroup group0, group1;
  group0.next.kind = consensus::Outcome::Kind::Rejected;
  group0.next.redirect_reason = RejectReason::WrongShard;
  group0.next.redirect_epoch = map.epoch();
  group0.next.redirect_group = 1;
  group0.next.issued = 0;
  group0.next.completed = 4;
  group1.next.kind = consensus::Outcome::Kind::Reply;
  group1.next.issued = 5;
  group1.next.completed = 9;
  ShardRouter router(map, {&group0, &group1});

  std::optional<consensus::Outcome> outcome;
  router.invoke(put(key_owned_by(map, 0), "v"),
                [&outcome](const consensus::Outcome& o) { outcome = o; });
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  EXPECT_EQ(router.stats().redirects, 1u);
  EXPECT_EQ(outcome->issued, 0);
  EXPECT_EQ(outcome->latency(), 9);
}

// --- ShardedSimCluster ----------------------------------------------------

ShardedSimConfig small_cluster(std::size_t groups, std::size_t routers) {
  ShardedSimConfig config;
  config.groups = groups;
  config.routers = routers;
  config.seed = 7;
  return config;
}

/// Closed-loop load without rejection backoff over `records` uniformly
/// drawn keys; `read_share` of the operations are Gets, the rest Puts of
/// one-letter values.
harness::LoadConfig router_load(std::uint64_t records, double read_share) {
  harness::LoadConfig load;
  load.backoff_max = 0;
  load.workload.record_count = records;
  load.workload.distribution = app::KeyDistribution::Uniform;
  load.workload.read_proportion = read_share;
  load.workload.update_proportion = 1.0 - read_share;
  load.workload.value_size = 1;
  return load;
}

/// Runs `driver` for `span` of simulated time, then stops it and lets the
/// operations still in flight conclude (bounded: a stuck operation
/// retries at the client's interval forever).
void drive_for(ShardedSimCluster& cluster, harness::LoadDriver& driver, Duration span) {
  sim::Simulator& sim = cluster.simulator();
  driver.start();
  sim.run_for(span);
  driver.stop();
  const Time grace = sim.now() + 30 * kSecond;
  sim.run_while([&] { return driver.in_flight() > 0 && sim.now() < grace; });
}

TEST(ShardedSim, ServesAcrossGroupsWithoutRedirects) {
  ShardedSimCluster cluster(small_cluster(2, 4));

  harness::LoadDriver driver(cluster.simulator(), cluster.routers(), router_load(1000, 0));
  drive_for(cluster, driver, 2 * kSecond);

  EXPECT_GT(driver.metrics().replies, 100u);
  // A fresh uniform map routes every key straight home.
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(cluster.router(r).stats().redirects, 0u);
  }
  EXPECT_GT(cluster.gate(0).stats().admitted, 0u);
  EXPECT_GT(cluster.gate(1).stats().admitted, 0u);
  EXPECT_EQ(cluster.gate(0).stats().redirected, 0u);
  EXPECT_EQ(cluster.gate(1).stats().redirected, 0u);
}

TEST(ShardedSim, WrongShardRejectsRedirectStaleRouters) {
  ShardedSimCluster cluster(small_cluster(2, 2));
  // Publish a newer map (swap ownership of the lower half) *without*
  // telling the routers: their cached epoch-1 map is now stale.
  const std::uint64_t mid = cluster.map().entries()[1].begin;
  ShardMap swapped = cluster.map().with_range_moved(0, mid, 1);
  cluster.publish(swapped);

  harness::LoadDriver driver(cluster.simulator(), cluster.routers(), router_load(1000, 0));
  drive_for(cluster, driver, 2 * kSecond);

  EXPECT_GT(driver.metrics().replies, 100u);

  // The first operation whose key moved draws a WrongShard REJECT; the
  // map_source refresh then retires the stale map for good.
  std::uint64_t redirects = 0;
  std::uint64_t refreshes = 0;
  for (std::size_t r = 0; r < 2; ++r) {
    redirects += cluster.router(r).stats().redirects;
    refreshes += cluster.router(r).stats().map_refreshes;
    EXPECT_EQ(cluster.router(r).map().epoch(), 2u);
    EXPECT_EQ(cluster.router(r).stats().redirect_drops, 0u);
  }
  EXPECT_GT(redirects, 0u);
  EXPECT_GT(refreshes, 0u);

  std::uint64_t wrong_shard = 0;
  for (std::size_t g = 0; g < 2; ++g) {
    for (std::size_t i = 0; i < cluster.n(); ++i) {
      wrong_shard += cluster.replica(g, i).stats().rejects_for(RejectReason::WrongShard);
    }
  }
  EXPECT_GT(wrong_shard, 0u);
}

TEST(ShardedSim, LiveSplitIsLinearizableAcrossTheEpochFlip) {
  ShardedSimCluster cluster(small_cluster(2, 3));
  // Start with group 0 owning everything: epoch 2, group 1 idle.
  cluster.publish(cluster.map().with_range_moved(0, 0, 0));
  ASSERT_EQ(cluster.map().epoch(), 2u);

  harness::LoadConfig load = router_load(50, 0.5);
  load.record_history = true;
  harness::LoadDriver driver(cluster.simulator(), cluster.routers(), load);

  drive_for(cluster, driver, kSecond);
  const std::uint64_t replies_before = driver.metrics().replies;
  // Split the upper half of the hash space off to group 1, live.
  ASSERT_TRUE(cluster.run_split(1ull << 63, 0, 0, 1));
  EXPECT_EQ(cluster.map().epoch(), 3u);
  drive_for(cluster, driver, kSecond);
  const std::uint64_t replies_after = driver.metrics().replies - replies_before;

  EXPECT_GT(replies_before, 50u);
  EXPECT_GT(replies_after, 50u);

  // Both groups serve now, and the routers learned the new map through
  // WrongShard redirects.
  EXPECT_GT(cluster.gate(1).stats().admitted, 0u);
  std::uint64_t redirects = 0;
  for (std::size_t r = 0; r < 3; ++r) redirects += cluster.router(r).stats().redirects;
  EXPECT_GT(redirects, 0u);

  const auto result = check::check_linearizable(driver.metrics().history, check::KvModel{});
  EXPECT_TRUE(result.linearizable) << result.error;
}

TEST(ShardedSim, StalePublishKeepsTheNewerMap) {
  ShardedSimCluster cluster(small_cluster(2, 2));
  const ShardMap first = cluster.map();
  const ShardMap second = first.with_range_moved(0, 0, 1);  // everything -> group 1
  cluster.publish(second);
  ASSERT_EQ(cluster.map().epoch(), 2u);

  // A late publish of the older map changes nothing: the cluster's map
  // (which the routers' map_source returns) keeps the epoch every gate
  // holds.
  cluster.publish(first);
  EXPECT_EQ(cluster.map().epoch(), 2u);
  EXPECT_EQ(cluster.map().group_for_key("k"), 1u);
  for (std::size_t g = 0; g < cluster.groups(); ++g) {
    EXPECT_EQ(cluster.gate(g).epoch(), 2u) << "group " << g;
  }
  // So does a second publish of the same epoch.
  cluster.publish(first.with_range_moved(0, 0, 0));
  EXPECT_EQ(cluster.map().group_for_key("k"), 1u);
}

TEST(ShardedSim, LeaderCrashMidSplitRecoversOrAborts) {
  ShardedSimCluster cluster(small_cluster(2, 2));
  cluster.publish(cluster.map().with_range_moved(0, 0, 0));

  harness::LoadConfig load = router_load(20, 0);
  load.record_history = true;
  harness::LoadDriver driver(cluster.simulator(), cluster.routers(), load);
  drive_for(cluster, driver, kSecond);

  // Freeze, then kill the source leader before the drain begins: the
  // split must either complete against the post-view-change group or
  // abort cleanly (freeze lifted, map unchanged) — never hang or corrupt.
  cluster.gate(0).freeze();
  const std::size_t leader = cluster.leader_of(0);
  ASSERT_LT(leader, cluster.n());
  cluster.crash_replica(0, leader);
  const bool split = cluster.run_split(1ull << 63, 0, 0, 1, 10 * kSecond);
  EXPECT_FALSE(cluster.gate(0).frozen());
  EXPECT_EQ(cluster.map().epoch(), split ? 3u : 2u);

  // The deployment keeps serving with the surviving majority either way.
  const std::uint64_t replies_before = driver.metrics().replies;
  drive_for(cluster, driver, 2 * kSecond);
  EXPECT_GT(driver.metrics().replies - replies_before, 20u);

  const auto result = check::check_linearizable(driver.metrics().history, check::KvModel{});
  EXPECT_TRUE(result.linearizable) << result.error;
}

}  // namespace
}  // namespace idem::shard
