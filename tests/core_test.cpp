// Unit tests for the protocol-agnostic replication core (src/core): the
// timeout helpers, the client session table, the batch pipeline, the
// rejected-bodies cache, the ordered log, vote sets, the view change and
// the lifecycle trace helpers. The protocols layered on top are covered by their own suites;
// these tests pin the core semantics the layers rely on.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
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
#include "core/view_change.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

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
  EXPECT_EQ(log.low(), 6u);
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

// ------------------------------------------------------------ view change

using Slot = BoundSlot<RequestId>;

/// Records every call the view change makes on its replica.
struct FakeHost final : ViewChange<Slot>::Host {
  std::vector<std::shared_ptr<const msg::ViewChange>> demands;
  std::vector<bool> entries;  ///< `demoted`, per view entered
  std::vector<std::pair<std::uint64_t, std::vector<RequestId>>> reproposals;
  std::optional<std::uint64_t> next_free;
  std::vector<std::pair<std::uint64_t, ReplicaId>> catch_ups;
  bool can_catch_up = true;

  void demanded(sim::PayloadPtr viewchange) override {
    demands.push_back(std::static_pointer_cast<const msg::ViewChange>(viewchange));
  }
  void entered(bool demoted) override { entries.push_back(demoted); }
  void repropose(std::uint64_t sqn, const Slot& slot) override {
    reproposals.emplace_back(sqn, slot.items);
  }
  void lead(std::uint64_t next) override { next_free = next; }
  bool catch_up(std::uint64_t line, ReplicaId reporter) override {
    catch_ups.emplace_back(line, reporter);
    return can_catch_up;
  }
};

/// Replica 1 of 3, in view 0.
struct ViewChangeFixture {
  sim::Simulator clock{1};
  OrderedLog<Slot> log;
  FakeHost host;
  ViewChange<Slot> views{host, log, clock, ReplicaId{1}, 3, nullptr};

  void bind(std::uint64_t sqn, std::uint64_t view, RequestId id) {
    Slot& slot = log.at(sqn);
    slot.has_binding = true;
    slot.view = ViewId{view};
    slot.items = {id};
  }

  void receive(std::uint32_t from, std::uint64_t target, std::uint64_t window_start = 0,
               std::vector<msg::WindowEntry> proposals = {}) {
    msg::ViewChange viewchange;
    viewchange.from = ReplicaId{from};
    viewchange.target = ViewId{target};
    viewchange.window_start = SeqNum{window_start};
    viewchange.proposals = std::move(proposals);
    views.handle(viewchange);
  }
};

msg::WindowEntry entry(std::uint64_t sqn, std::uint64_t view, std::vector<RequestId> items) {
  return {SeqNum{sqn}, ViewId{view}, std::move(items)};
}

TEST(ViewChange, JoinsAtFPlusOneAndEscalatesToAHigherTarget) {
  ViewChangeFixture f;
  f.bind(0, 0, rid(0, 1));
  f.receive(2, 2);  // one demand of view 2: the current view keeps its support
  EXPECT_FALSE(f.views.in_viewchange());
  EXPECT_TRUE(f.host.demands.empty());

  f.receive(0, 2);  // f + 1 demands: join, shipping the bound slot
  EXPECT_TRUE(f.views.in_viewchange());
  EXPECT_EQ(f.views.leader_view(), ViewId{2});
  ASSERT_EQ(f.host.demands.size(), 1u);
  EXPECT_EQ(f.host.demands[0]->from, ReplicaId{1});
  EXPECT_EQ(f.host.demands[0]->target, ViewId{2});
  ASSERT_EQ(f.host.demands[0]->proposals.size(), 1u);
  EXPECT_EQ(f.host.demands[0]->proposals[0].items, std::vector<RequestId>{rid(0, 1)});
  EXPECT_EQ(f.views.next_target(), ViewId{3});

  f.receive(2, 3);  // one peer escalates: follow at once
  ASSERT_EQ(f.host.demands.size(), 2u);
  EXPECT_EQ(f.host.demands[1]->target, ViewId{3});
  EXPECT_EQ(f.views.view(), ViewId{0});
  EXPECT_TRUE(f.host.entries.empty());
}

TEST(ViewChange, NewestViewWinsAndAnExecutedSlotKeepsItsBinding) {
  ViewChangeFixture f;  // replica 1 leads view 4
  f.bind(0, 1, rid(0, 1));
  f.log.at(0).executed = true;
  f.log.set_next_exec(1);
  f.bind(1, 1, rid(0, 2));
  f.receive(2, 4, 0, {entry(0, 2, {rid(9, 9)}), entry(1, 3, {rid(0, 3)}), entry(2, 2, {rid(0, 4)})});
  f.receive(0, 4, 0, {entry(1, 2, {rid(0, 5)})});

  EXPECT_TRUE(f.views.leads());
  EXPECT_EQ(f.views.view(), ViewId{4});
  EXPECT_EQ(f.host.entries, std::vector<bool>{false});
  EXPECT_EQ(f.log.at(0).items, std::vector<RequestId>{rid(0, 1)});
  using Reproposals = std::vector<std::pair<std::uint64_t, std::vector<RequestId>>>;
  EXPECT_EQ(f.host.reproposals, (Reproposals{{1, {rid(0, 3)}}, {2, {rid(0, 4)}}}));
  EXPECT_EQ(f.log.at(1).view, ViewId{4});
  EXPECT_EQ(f.log.at(1).votes.size(), 1u);  // the leader's own, in view 4
  EXPECT_EQ(f.host.next_free, 3u);
  EXPECT_TRUE(f.host.catch_ups.empty());
}

TEST(ViewChange, AdoptLeavesCollectedExecutedAndNewerBindingsAlone) {
  ViewChangeFixture f;
  f.log.advance_low(5, [](Slot&) {});
  f.views.adopt(3, ViewId{1}, {rid(0, 1)});
  EXPECT_FALSE(f.log.contains(3));  // collected
  f.views.adopt(6, ViewId{2}, {rid(0, 2)});
  f.views.adopt(6, ViewId{2}, {rid(0, 3)});  // same view
  f.views.adopt(6, ViewId{1}, {rid(0, 4)});  // older view
  EXPECT_EQ(f.log.at(6).items, std::vector<RequestId>{rid(0, 2)});
  f.log.at(6).executed = true;
  f.views.adopt(6, ViewId{3}, {rid(0, 5)});  // executed
  EXPECT_EQ(f.log.at(6).items, std::vector<RequestId>{rid(0, 2)});
  f.log.at(7).votes.insert(2);
  f.views.adopt(7, ViewId{3}, {rid(0, 6)});
  f.views.adopt(7, ViewId{4}, {rid(0, 7)});  // newer view: rebinds, votes void
  EXPECT_EQ(f.log.at(7).items, std::vector<RequestId>{rid(0, 7)});
  EXPECT_TRUE(f.log.at(7).votes.empty());
}

TEST(ViewChange, NoOpsFillAboveTheLineAndNothingBelowIt) {
  ViewChangeFixture f;  // replica 1 leads view 1
  // Replica 2 executed and collected every slot below 5; replica 0 still
  // ships bindings below that line.
  f.receive(0, 1, 0, {entry(1, 0, {rid(0, 1)}), entry(3, 0, {rid(0, 2)})});
  f.receive(2, 1, 5, {entry(6, 0, {rid(0, 3)})});

  EXPECT_EQ(f.host.catch_ups, (std::vector<std::pair<std::uint64_t, ReplicaId>>{{5, ReplicaId{2}}}));
  EXPECT_TRUE(f.views.leads());
  using Reproposals = std::vector<std::pair<std::uint64_t, std::vector<RequestId>>>;
  EXPECT_EQ(f.host.reproposals, (Reproposals{{5, {}}, {6, {rid(0, 3)}}}));
  for (std::uint64_t sqn : {0, 2, 4}) EXPECT_FALSE(f.log.contains(sqn)) << sqn;
  EXPECT_EQ(f.host.next_free, 7u);
}

TEST(ViewChange, NewLeaderTakesNoFreeSlotBelowTheLine) {
  ViewChangeFixture f;
  f.receive(0, 1);
  f.receive(2, 1, 9);  // the line is above every binding
  EXPECT_TRUE(f.host.reproposals.empty());
  EXPECT_EQ(f.host.next_free, 9u);
}

TEST(ViewChange, ReplicaThatCannotCatchUpStaysInTheViewChange) {
  ViewChangeFixture f;
  f.host.can_catch_up = false;
  f.receive(0, 1, 0, {entry(1, 0, {rid(0, 1)})});
  f.receive(2, 1, 5, {entry(6, 0, {rid(0, 3)})});
  EXPECT_EQ(f.host.catch_ups.size(), 1u);
  EXPECT_TRUE(f.views.in_viewchange());
  EXPECT_FALSE(f.views.leads());
  EXPECT_EQ(f.views.view(), ViewId{0});
  EXPECT_TRUE(f.host.entries.empty());
  EXPECT_TRUE(f.host.reproposals.empty());
  EXPECT_FALSE(f.host.next_free.has_value());
  EXPECT_EQ(f.views.next_target(), ViewId{2});  // the failure timer moves on
}

TEST(ViewChange, ViewBelowThePromisedTargetIsIgnored) {
  ViewChangeFixture f;
  f.views.demand(ViewId{3});
  ASSERT_TRUE(f.views.in_viewchange());
  EXPECT_FALSE(f.views.observe(ViewId{0}));  // the abandoned view
  EXPECT_FALSE(f.views.observe(ViewId{2}));  // newer, but below the promise
  EXPECT_EQ(f.views.view(), ViewId{0});
  EXPECT_TRUE(f.host.entries.empty());

  EXPECT_TRUE(f.views.observe(ViewId{3}));  // the target is entered
  EXPECT_EQ(f.views.view(), ViewId{3});
  EXPECT_FALSE(f.views.in_viewchange());
  EXPECT_EQ(f.host.entries, std::vector<bool>{false});
  EXPECT_TRUE(f.views.observe(ViewId{3}));
  EXPECT_FALSE(f.views.observe(ViewId{2}));
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
