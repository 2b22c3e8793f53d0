// Unit tests for the protocol-agnostic replication core (src/core): the
// timeout helpers, the client session table, the batch pipeline, the
// rejected-bodies cache, the ordered log, vote sets and the lifecycle trace
// helpers. The protocols layered on top are covered by their own suites;
// these tests pin the core semantics the layers rely on.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "consensus/messages.hpp"
#include "consensus/quorum.hpp"
#include "core/batch_pipeline.hpp"
#include "core/client_table.hpp"
#include "core/lifecycle.hpp"
#include "core/ordered_log.hpp"
#include "core/rejected_cache.hpp"
#include "core/timers.hpp"
#include "obs/trace.hpp"

namespace idem::core {
namespace {

RequestId rid(std::uint64_t cid, std::uint64_t onr) {
  return RequestId{ClientId{cid}, OpNum{onr}};
}

std::vector<std::byte> body(unsigned char tag) { return {std::byte{tag}}; }

// ---------------------------------------------------------------- timers

TEST(Timers, NextViewTargetEscalatesMonotonically) {
  // Not in a view change: demand the view after the current one.
  EXPECT_EQ(next_view_target(false, ViewId{3}, ViewId{0}).value, 4u);
  // Mid view change toward view 5: a stalled straggler escalates to 6, it
  // does not re-demand view_ + 1 (Section 4.5).
  EXPECT_EQ(next_view_target(true, ViewId{3}, ViewId{5}).value, 6u);
}

TEST(Timers, StallWatermarkNeedsTwoObservations) {
  StallWatermark mark;
  EXPECT_FALSE(mark.stalled_at(7));  // first sighting
  EXPECT_TRUE(mark.stalled_at(7));   // same head one interval later
  EXPECT_FALSE(mark.stalled_at(8));  // progress resets the verdict
  mark.reset();
  EXPECT_FALSE(mark.stalled_at(8));  // reset forgets the previous head
}

TEST(Timers, RetryGateRateLimits) {
  RetryGate gate;
  EXPECT_TRUE(gate.allow(0, 10));
  EXPECT_FALSE(gate.allow(5, 10));   // within the interval
  EXPECT_TRUE(gate.allow(10, 10));   // exactly one interval later
  gate.reset();
  EXPECT_TRUE(gate.allow(11, 10));   // reset re-arms immediately
}

// ----------------------------------------------------------- client table

TEST(ClientTable, ExecutedCoversOlderOperations) {
  ClientTable table;
  EXPECT_FALSE(table.executed(rid(1, 1)));
  table.record(rid(1, 3), std::make_shared<const msg::Reply>(rid(1, 3), body(0xA)));
  EXPECT_TRUE(table.executed(rid(1, 3)));
  EXPECT_TRUE(table.executed(rid(1, 2)));   // older op of the same client
  EXPECT_FALSE(table.executed(rid(1, 4)));  // newer op
  EXPECT_FALSE(table.executed(rid(2, 1)));  // other client
  EXPECT_EQ(table.last_executed(ClientId{1})->value, 3u);
  EXPECT_FALSE(table.last_executed(ClientId{2}).has_value());
}

TEST(ClientTable, CachedReplyMatchesExactIdOnly) {
  ClientTable table;
  table.record(rid(1, 3), std::make_shared<const msg::Reply>(rid(1, 3), body(0xA)));
  ASSERT_NE(table.cached_reply(rid(1, 3)), nullptr);
  // An older retransmission must not get the newer reply.
  EXPECT_EQ(table.cached_reply(rid(1, 2)), nullptr);
}

TEST(ClientTable, MergeExecutedKeepsNewerProgress) {
  ClientTable table;
  table.record(rid(1, 5), std::make_shared<const msg::Reply>(rid(1, 5), body(0xA)));
  table.merge_executed(ClientId{1}, OpNum{3});  // stale checkpoint: ignored
  EXPECT_EQ(table.last_executed(ClientId{1})->value, 5u);
  table.merge_executed(ClientId{1}, OpNum{9});  // newer checkpoint: adopted
  EXPECT_EQ(table.last_executed(ClientId{1})->value, 9u);
}

TEST(ClientTable, ClearRepliesKeepsSessions) {
  ClientTable table;
  table.record(rid(1, 3), std::make_shared<const msg::Reply>(rid(1, 3), body(0xA)));
  table.clear_replies();
  EXPECT_EQ(table.cached_reply(rid(1, 3)), nullptr);
  EXPECT_TRUE(table.executed(rid(1, 3)));  // duplicate suppression survives
}

// --------------------------------------------------------- batch pipeline

using IdPipeline = BatchPipeline<RequestId>;

TEST(BatchPipeline, DefaultsCutImmediately) {
  IdPipeline pipe;
  EXPECT_TRUE(pipe.empty());
  pipe.push(rid(1, 1));
  EXPECT_FALSE(pipe.empty());
  std::vector<RequestId> batch;
  pipe.cut([&](RequestId& id) {
    batch.push_back(id);
    return IdPipeline::Verdict::Take;
  });
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_TRUE(pipe.empty());
}

TEST(BatchPipeline, CutRespectsBatchMaxAndDrop) {
  IdPipeline pipe;
  pipe.configure({/*batch_max=*/2});
  for (std::uint64_t i = 1; i <= 4; ++i) pipe.push(rid(i, 1));
  std::vector<RequestId> batch;
  std::size_t taken = pipe.cut([&](RequestId& id) {
    if (id.cid.value == 1) return IdPipeline::Verdict::Drop;
    batch.push_back(id);
    return IdPipeline::Verdict::Take;
  });
  // Client 1 dropped (does not count toward batch_max), clients 2 and 3
  // taken, client 4 still queued.
  EXPECT_EQ(taken, 2u);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].cid.value, 2u);
  EXPECT_EQ(batch[1].cid.value, 3u);
  EXPECT_EQ(pipe.size(), 1u);
}

TEST(BatchPipeline, DeferRequeuesBehindTailInOrder) {
  IdPipeline pipe;
  pipe.configure({/*batch_max=*/8});
  for (std::uint64_t i = 1; i <= 3; ++i) pipe.push(rid(i, 1));
  // Defer clients 1 and 3 (no body yet), take client 2.
  pipe.cut([&](RequestId& id) {
    return id.cid.value == 2 ? IdPipeline::Verdict::Take : IdPipeline::Verdict::Defer;
  });
  ASSERT_EQ(pipe.size(), 2u);
  std::vector<RequestId> order;
  pipe.cut([&](RequestId& id) {
    order.push_back(id);
    return IdPipeline::Verdict::Take;
  });
  // Deferred items kept their original relative order.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].cid.value, 1u);
  EXPECT_EQ(order[1].cid.value, 3u);
}

// --------------------------------------------------------- rejected cache

TEST(RejectedCache, EvictsLeastRecentlyRejected) {
  RejectedCache cache(2);
  cache.insert(rid(1, 1), body(1));
  cache.insert(rid(2, 1), body(2));
  cache.insert(rid(3, 1), body(3));  // evicts client 1
  EXPECT_FALSE(cache.contains(rid(1, 1)));
  EXPECT_TRUE(cache.contains(rid(2, 1)));
  EXPECT_TRUE(cache.contains(rid(3, 1)));
  ASSERT_NE(cache.find(rid(2, 1)), nullptr);
  EXPECT_EQ((*cache.find(rid(2, 1)))[0], std::byte{2});
}

TEST(RejectedCache, RepeatRejectionRefreshesRecency) {
  // Section 4.5: a rejection is ambivalent while the client still retries,
  // so a repeat rejection must move the entry to the front instead of
  // letting it age out.
  RejectedCache cache(2);
  cache.insert(rid(1, 1), body(1));
  cache.insert(rid(2, 1), body(2));
  cache.insert(rid(1, 1), body(1));  // client 1 retried: refresh
  cache.insert(rid(3, 1), body(3));  // evicts client 2, not client 1
  EXPECT_TRUE(cache.contains(rid(1, 1)));
  EXPECT_FALSE(cache.contains(rid(2, 1)));
}

TEST(RejectedCache, EraseDropsPromotedEntries) {
  RejectedCache cache(4);
  cache.insert(rid(1, 1), body(1));
  cache.erase(rid(1, 1));
  EXPECT_FALSE(cache.contains(rid(1, 1)));
  EXPECT_EQ(cache.find(rid(1, 1)), nullptr);
  cache.erase(rid(9, 9));  // erasing an absent id is a no-op
}

TEST(RejectedCache, ZeroCapacityStoresNothing) {
  RejectedCache cache(0);
  cache.insert(rid(1, 1), body(1));
  EXPECT_EQ(cache.size(), 0u);
}

// ------------------------------------------------------------ ordered log

struct TestSlot : SlotBase {
  int payload = 0;
};

TEST(OrderedLog, CursorAndHead) {
  OrderedLog<TestSlot> log;
  EXPECT_EQ(log.head(), nullptr);
  log.at(0).payload = 10;
  log.at(2).payload = 30;
  ASSERT_NE(log.head(), nullptr);
  EXPECT_EQ(log.head()->payload, 10);
  log.advance_head();
  EXPECT_EQ(log.head(), nullptr);  // slot 1 never created
  EXPECT_EQ(log.next_exec(), 1u);
  log.set_next_exec(2);
  EXPECT_EQ(log.head()->payload, 30);
}

TEST(OrderedLog, SkipBoundSkipsBoundRuns) {
  OrderedLog<TestSlot> log;
  log.at(3).has_binding = true;
  log.at(4).has_binding = true;
  log.at(6).has_binding = true;
  EXPECT_EQ(log.skip_bound(2), 2u);  // free (slot absent)
  EXPECT_EQ(log.skip_bound(3), 5u);  // 3 and 4 bound, 5 free
  EXPECT_EQ(log.skip_bound(5), 5u);
  // skip_bound must not create slots as a side effect.
  EXPECT_FALSE(log.contains(5));
}

TEST(OrderedLog, HighWatermark) {
  OrderedLog<TestSlot> log;
  log.at(2).has_binding = true;
  log.at(5).has_binding = true;
  log.at(7);  // unbound slot: ignored by the predicate
  auto bound = [](const TestSlot& slot) { return slot.has_binding; };
  EXPECT_EQ(log.high_watermark(0, bound), 6u);
  EXPECT_EQ(log.high_watermark(9, bound), 9u);  // floor wins
}

TEST(OrderedLog, AdvanceLowReleasesExecutedSlots) {
  OrderedLog<TestSlot> log;
  log.at(0).executed = true;
  log.at(1);  // unexecuted slot below the new low: dropped silently
  log.at(2).executed = true;
  log.at(3).payload = 99;
  std::vector<int> released;
  log.advance_low(3, [&](TestSlot& slot) { released.push_back(slot.payload); });
  EXPECT_EQ(released.size(), 2u);
  EXPECT_EQ(log.low(), 3u);
  EXPECT_FALSE(log.contains(2));
  EXPECT_TRUE(log.contains(3));
}

TEST(OrderedLog, GcExecutedKeepsTrailingWindow) {
  OrderedLog<TestSlot> log;
  for (std::uint64_t sqn = 0; sqn < 10; ++sqn) log.at(sqn).executed = true;
  log.set_next_exec(10);
  log.gc_executed(/*window_size=*/2);  // keep [10 - 4, ...)
  EXPECT_FALSE(log.contains(5));
  EXPECT_TRUE(log.contains(6));
  EXPECT_TRUE(log.contains(9));
  // Below the 2x threshold nothing is collected.
  OrderedLog<TestSlot> young;
  young.at(0).executed = true;
  young.set_next_exec(1);
  young.gc_executed(/*window_size=*/2);
  EXPECT_TRUE(young.contains(0));
}

// ------------------------------------------------------------- votes

TEST(VoteSet, CountsDistinctVotersInAscendingOrder) {
  consensus::VoteSet votes;
  for (std::uint32_t voter : {5u, 0u, 5u, 63u}) votes.insert(voter);
  EXPECT_EQ(votes.size(), 3u);
  std::vector<std::uint32_t> voters;
  for (std::uint32_t voter : votes) voters.push_back(voter);
  EXPECT_EQ(voters, (std::vector<std::uint32_t>{0, 5, 63}));
  // No replica has an id past the mask: a malformed sender is not counted.
  votes.insert(64);
  votes.insert(1'000'000);
  EXPECT_EQ(votes.size(), 3u);
  votes.clear();
  EXPECT_TRUE(votes.empty());
  EXPECT_EQ(votes.begin(), votes.end());
}

// ------------------------------------------------------------- lifecycle

/// A clock that counts its reads.
struct CountingClock {
  mutable int reads = 0;
  Time now() const {
    ++reads;
    return 7;
  }
};

TEST(Lifecycle, NullRecorderNeverReadsTheClock) {
  CountingClock clock;
  struct Slot {
    bool quorum_traced = false;
  } slot;
  const RequestId id = rid(1, 1);
  lifecycle::accept_verdict(nullptr, clock, 0, id, true);
  lifecycle::proposed(nullptr, clock, 0, id, 3);
  lifecycle::propose_received(nullptr, clock, 0, 3);
  lifecycle::decision_quorum(nullptr, clock, 0, 3, slot, 2, 2);
  lifecycle::executed(nullptr, clock, 0, id, 3);
  lifecycle::reply_sent(nullptr, clock, 0, id);
  lifecycle::viewchange_start(nullptr, clock, 0, 1);
  lifecycle::viewchange_done(nullptr, clock, 0, 1);
  EXPECT_EQ(clock.reads, 0);
#ifndef IDEM_TRACE_OFF
  // A recorded event reads the clock once, for its timestamp.
  obs::TraceRecorder trace(16);
  lifecycle::executed(&trace, clock, 0, id, 3);
  EXPECT_EQ(clock.reads, 1);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.snapshot()[0].at, 7);
#endif
}

}  // namespace
}  // namespace idem::core
