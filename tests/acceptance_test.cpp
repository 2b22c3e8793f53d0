// Unit tests for IDEM's acceptance tests (paper Section 5.1) and the
// consensus bookkeeping helpers.
#include <gtest/gtest.h>

#include "consensus/quorum.hpp"
#include "idem/acceptance.hpp"

namespace idem::core {
namespace {

/// Calls test.accept with an empty command (most tests are content-blind).
template <typename T>
bool accept_empty(T& test, RequestId id, const AcceptanceContext& c) {
  return test.accept(id, std::span<const std::byte>{}, c);
}

AcceptanceContext ctx(std::size_t active, std::size_t r, Time now = 0) {
  AcceptanceContext c;
  c.active_requests = active;
  c.reject_threshold = r;
  c.now = now;
  return c;
}

RequestId rid(std::uint64_t cid, std::uint64_t onr) {
  return RequestId{ClientId{cid}, OpNum{onr}};
}

// ---------------------------------------------------------------------------
// NeverReject / TailDrop
// ---------------------------------------------------------------------------

TEST(NeverRejectTest, AlwaysAccepts) {
  NeverReject test;
  EXPECT_TRUE(accept_empty(test, rid(1, 1), ctx(0, 50)));
  EXPECT_TRUE(accept_empty(test, rid(1, 2), ctx(50, 50)));
  EXPECT_TRUE(accept_empty(test, rid(1, 3), ctx(5000, 50)));
}

TEST(TailDropTest, AcceptsBelowThreshold) {
  TailDrop test;
  EXPECT_TRUE(accept_empty(test, rid(1, 1), ctx(0, 50)));
  EXPECT_TRUE(accept_empty(test, rid(1, 2), ctx(49, 50)));
}

TEST(TailDropTest, RejectsAtThreshold) {
  TailDrop test;
  EXPECT_FALSE(accept_empty(test, rid(1, 1), ctx(50, 50)));
  EXPECT_FALSE(accept_empty(test, rid(1, 2), ctx(51, 50)));
}

// ---------------------------------------------------------------------------
// AqmPrioritized
// ---------------------------------------------------------------------------

AqmPrioritized::Params params(std::size_t groups, std::uint64_t seed = 1) {
  AqmPrioritized::Params p;
  p.start_fraction = 0.6;
  p.time_slice = 2 * kSecond;
  p.group_count = groups;
  p.prf_seed = seed;
  return p;
}

TEST(AqmTest, AcceptsEverythingBelowStartFraction) {
  AqmPrioritized test(params(4));
  for (std::uint64_t c = 0; c < 200; ++c) {
    EXPECT_TRUE(accept_empty(test, rid(c, 1), ctx(29, 50)));  // 29 < 0.6 * 50
  }
}

TEST(AqmTest, HardCapAtThreshold) {
  AqmPrioritized test(params(4));
  for (std::uint64_t c = 0; c < 200; ++c) {
    EXPECT_FALSE(accept_empty(test, rid(c, 1), ctx(50, 50)));
    EXPECT_FALSE(accept_empty(test, rid(c, 1), ctx(75, 50)));
  }
}

TEST(AqmTest, PrioritizedClientsTailDropOnly) {
  AqmPrioritized test(params(4));
  // At t=0, group 0 is prioritized: clients 0..r-1.
  for (std::uint64_t c = 0; c < 50; ++c) {
    EXPECT_TRUE(accept_empty(test, rid(c, 1), ctx(45, 50, 0)));
  }
}

TEST(AqmTest, NonPrioritizedRejectedProbabilistically) {
  AqmPrioritized test(params(4));
  // Clients of group 1 (cid 50..99) at t=0 with r_now/r = 0.9.
  int accepted = 0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    if (accept_empty(test, rid(50 + (i % 50), 1 + i / 50), ctx(45, 50, 0))) ++accepted;
  }
  // p(reject) = 0.9 -> ~10% accepted.
  EXPECT_GT(accepted, 20);
  EXPECT_LT(accepted, 250);
}

TEST(AqmTest, RejectionProbabilityScalesWithLoad) {
  AqmPrioritized test(params(4));
  auto acceptance_rate = [&](std::size_t active) {
    int accepted = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
      if (accept_empty(test, rid(50 + (i % 50), 1000 + i), ctx(active, 50, 0))) ++accepted;
    }
    return static_cast<double>(accepted) / n;
  };
  double at_60 = acceptance_rate(30);
  double at_80 = acceptance_rate(40);
  double at_96 = acceptance_rate(48);
  EXPECT_GT(at_60, at_80);
  EXPECT_GT(at_80, at_96);
  EXPECT_NEAR(at_60, 0.4, 0.08);   // p = 30/50 = 0.6 reject
  EXPECT_NEAR(at_96, 0.04, 0.03);  // p = 48/50 = 0.96 reject
}

TEST(AqmTest, PrfIsDeterministicAcrossInstances) {
  // Two replicas with the same seed must reach the same verdict for the
  // same request at the same load (the unanimity mechanism).
  AqmPrioritized a(params(4, 99));
  AqmPrioritized b(params(4, 99));
  for (std::uint64_t i = 0; i < 500; ++i) {
    RequestId id = rid(60 + i % 40, i);
    EXPECT_EQ(accept_empty(a, id, ctx(40, 50, 0)), accept_empty(b, id, ctx(40, 50, 0)));
  }
}

TEST(AqmTest, DifferentSeedsDiverge) {
  AqmPrioritized a(params(4, 1));
  AqmPrioritized b(params(4, 2));
  int differ = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    RequestId id = rid(60, i);
    if (accept_empty(a, id, ctx(40, 50, 0)) != accept_empty(b, id, ctx(40, 50, 0))) ++differ;
  }
  EXPECT_GT(differ, 50);
}

TEST(AqmTest, PrioritizedGroupRotatesWithTime) {
  AqmPrioritized test(params(4));
  EXPECT_EQ(test.prioritized_group(0), 0u);
  EXPECT_EQ(test.prioritized_group(2 * kSecond), 1u);
  EXPECT_EQ(test.prioritized_group(4 * kSecond), 2u);
  EXPECT_EQ(test.prioritized_group(8 * kSecond), 0u);  // wraps around
}

TEST(AqmTest, GroupAssignmentByClientId) {
  AqmPrioritized test(params(3));
  EXPECT_EQ(test.group_of(ClientId{0}, 50), 0u);
  EXPECT_EQ(test.group_of(ClientId{49}, 50), 0u);
  EXPECT_EQ(test.group_of(ClientId{50}, 50), 1u);
  EXPECT_EQ(test.group_of(ClientId{149}, 50), 2u);
  EXPECT_EQ(test.group_of(ClientId{150}, 50), 0u);  // wraps at group_count
}

TEST(AqmTest, FairnessAcrossGroupsOverTime) {
  // Over several time slices every group gets prioritized slots, so all
  // clients see similar acceptance rates (paper: "similar share of
  // accepted and rejected requests").
  AqmPrioritized test(params(2));
  std::uint64_t onr = 0;
  int accepted_group0 = 0, accepted_group1 = 0;
  for (Time t = 0; t < 8 * kSecond; t += 10 * kMillisecond) {
    for (std::uint64_t c : {std::uint64_t{5}, std::uint64_t{55}}) {
      bool ok = accept_empty(test, rid(c, ++onr), ctx(40, 50, t));
      if (c < 50) accepted_group0 += ok;
      else accepted_group1 += ok;
    }
  }
  double ratio = static_cast<double>(accepted_group0) / accepted_group1;
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
}

TEST(AqmTest, FactoryDerivesGroupCount) {
  IdemConfig config;
  config.reject_threshold = 50;
  auto test = make_default_acceptance(config, 125);
  auto* aqm = dynamic_cast<AqmPrioritized*>(test.get());
  ASSERT_NE(aqm, nullptr);
  // ceil(125 / 50) = 3 groups.
  EXPECT_EQ(aqm->group_of(ClientId{100}, 50), 2u);
  EXPECT_EQ(aqm->group_of(ClientId{150}, 50), 0u);

  // The rest of the paper's test: AQM from 60% of r, 2 s slices and the
  // PRF seed every replica shares. The factory's test must agree with one
  // built from those values on every verdict.
  AqmPrioritized reference({.start_fraction = 0.6,
                            .time_slice = 2 * kSecond,
                            .group_count = 3,
                            .prf_seed = 0x1DE4'5EEDull});
  std::size_t rejected = 0;
  for (std::uint64_t c = 0; c < 150; c += 7) {
    for (std::uint64_t onr = 1; onr <= 4; ++onr) {
      for (std::size_t active = 0; active <= 51; active += 3) {
        for (Time t = 0; t < 7 * kSecond; t += 700 * kMillisecond) {
          const AcceptanceContext c_ctx = ctx(active, 50, t);
          const bool expected = accept_empty(reference, rid(c, onr), c_ctx);
          EXPECT_EQ(accept_empty(*test, rid(c, onr), c_ctx), expected)
              << "client " << c << " op " << onr << " r_now " << active << " t " << t;
          rejected += !expected;
        }
      }
    }
  }
  EXPECT_GT(rejected, 0u);  // the grid reaches the probabilistic range
}


// ---------------------------------------------------------------------------
// PriorityClasses (Section 5.1, "further options")
// ---------------------------------------------------------------------------

PriorityClasses make_priority_test() {
  // class 0 = best effort (cut at 50% of r), class 1 = normal (80%),
  // class 2 = critical (tail drop at r). Client id mod 3 picks the class.
  return PriorityClasses([](ClientId cid) { return std::size_t(cid.value % 3); },
                         {0.5, 0.8});
}

TEST(PriorityClassesTest, AllClassesAcceptedAtLowLoad) {
  PriorityClasses test = make_priority_test();
  for (std::uint64_t c = 0; c < 3; ++c) {
    EXPECT_TRUE(accept_empty(test, rid(c, 1), ctx(10, 50)));
  }
}

TEST(PriorityClassesTest, LowPriorityCutFirst) {
  PriorityClasses test = make_priority_test();
  // At 60% fill: class 0 (limit 25) rejected, class 1 (limit 40) and
  // class 2 still accepted.
  EXPECT_FALSE(accept_empty(test, rid(0, 1), ctx(30, 50)));
  EXPECT_TRUE(accept_empty(test, rid(1, 1), ctx(30, 50)));
  EXPECT_TRUE(accept_empty(test, rid(2, 1), ctx(30, 50)));
}

TEST(PriorityClassesTest, OnlyCriticalNearCapacity) {
  PriorityClasses test = make_priority_test();
  EXPECT_FALSE(accept_empty(test, rid(0, 1), ctx(45, 50)));
  EXPECT_FALSE(accept_empty(test, rid(1, 1), ctx(45, 50)));
  EXPECT_TRUE(accept_empty(test, rid(2, 1), ctx(45, 50)));
}

TEST(PriorityClassesTest, HardCapAppliesToEveryone) {
  PriorityClasses test = make_priority_test();
  for (std::uint64_t c = 0; c < 3; ++c) {
    EXPECT_FALSE(accept_empty(test, rid(c, 1), ctx(50, 50)));
  }
}

// ---------------------------------------------------------------------------
// CostAware (Section 5.1, "further options")
// ---------------------------------------------------------------------------

TEST(CostAwareTest, CheapRequestsTailDrop) {
  // Estimator: command size in bytes ~ cost in microseconds.
  CostAware test([](std::span<const std::byte> cmd) { return Duration(cmd.size()); },
                 /*cheap=*/100, /*expensive=*/1000, /*min_fraction=*/0.2);
  std::vector<std::byte> cheap(50);
  EXPECT_TRUE(test.accept(rid(1, 1), cheap, ctx(45, 50)));
  EXPECT_FALSE(test.accept(rid(1, 2), cheap, ctx(50, 50)));
}

TEST(CostAwareTest, ExpensiveRequestsRejectedEarlier) {
  CostAware test([](std::span<const std::byte> cmd) { return Duration(cmd.size()); },
                 /*cheap=*/100, /*expensive=*/1000, /*min_fraction=*/0.2);
  std::vector<std::byte> expensive(1000);
  // limit = 0.2 * 50 = 10 slots for the most expensive requests.
  EXPECT_TRUE(test.accept(rid(1, 1), expensive, ctx(9, 50)));
  EXPECT_FALSE(test.accept(rid(1, 2), expensive, ctx(10, 50)));
  // A cheap request is still welcome at the same load.
  std::vector<std::byte> cheap(50);
  EXPECT_TRUE(test.accept(rid(1, 3), cheap, ctx(10, 50)));
}

TEST(CostAwareTest, AdmissionLimitInterpolatesLinearly) {
  CostAware test([](std::span<const std::byte> cmd) { return Duration(cmd.size()); },
                 /*cheap=*/100, /*expensive=*/1100, /*min_fraction=*/0.0);
  EXPECT_EQ(test.admission_limit(100, 50), 50u);
  EXPECT_EQ(test.admission_limit(600, 50), 25u);   // halfway -> half of r
  EXPECT_EQ(test.admission_limit(1100, 50), 0u);
  EXPECT_EQ(test.admission_limit(5000, 50), 0u);   // clamped beyond expensive
}

// ---------------------------------------------------------------------------
// DeadlineAware
// ---------------------------------------------------------------------------

/// Context carrying a latency budget.
AcceptanceContext dctx(std::size_t active, std::size_t r, Time now, Duration deadline) {
  AcceptanceContext c = ctx(active, r, now);
  c.deadline = deadline;
  return c;
}

/// Warms the estimator past min_samples with uniform `service` samples.
void warm(DeadlineAware& test, Time at, Duration service, std::size_t count = 64) {
  for (std::size_t i = 0; i < count; ++i) test.record_sample(at, service);
}

TEST(DeadlineAwareTest, DeadlinelessTrafficFallsBackToTailDrop) {
  DeadlineAware test{DeadlineAware::Params{}};
  EXPECT_TRUE(accept_empty(test, rid(1, 1), ctx(3, 5)));
  RejectReason reason = RejectReason::None;
  EXPECT_FALSE(test.accept(rid(1, 2), {}, ctx(5, 5), reason));
  EXPECT_EQ(reason, RejectReason::RtQueueFull);
}

TEST(DeadlineAwareTest, ColdStartAcceptsEvenTightBudgets) {
  // No service-time evidence yet: no grounds to declare anything
  // un-meetable, so even a 1 ns budget is admitted (up to r).
  DeadlineAware test{DeadlineAware::Params{}};
  EXPECT_TRUE(accept_empty(test, rid(1, 1), dctx(40, 50, 0, 1)));
}

TEST(DeadlineAwareTest, HardCapBindsRegardlessOfSlack) {
  DeadlineAware test{DeadlineAware::Params{}};
  EXPECT_FALSE(accept_empty(test, rid(1, 1), dctx(50, 50, 0, kSecond)));
}

TEST(DeadlineAwareTest, RejectsUnmeetableBudgetWithItsOwnReason) {
  DeadlineAware test{DeadlineAware::Params{}};
  warm(test, kMillisecond, kMillisecond);
  // 10 requests ahead at ~1 ms each: a 2 ms budget cannot survive the
  // queue, a 1 s budget easily can.
  RejectReason reason = RejectReason::None;
  EXPECT_FALSE(test.accept(rid(1, 1), {}, dctx(10, 50, kMillisecond, 2 * kMillisecond), reason));
  EXPECT_EQ(reason, RejectReason::DeadlineUnmeetable);
  EXPECT_TRUE(accept_empty(test, rid(1, 2), dctx(10, 50, kMillisecond, kSecond)));
}

TEST(DeadlineAwareTest, SafetyMarginDemandsExtraSlack) {
  DeadlineAware::Params params;
  params.safety_margin = kSecond;
  DeadlineAware test{params};
  warm(test, kMillisecond, kMillisecond);
  // Meetable on the raw estimate, but not with a whole second of margin.
  EXPECT_FALSE(accept_empty(test, rid(1, 1), dctx(10, 50, kMillisecond, 100 * kMillisecond)));
}

TEST(DeadlineAwareTest, EstimatorTracksTheServiceQuantile) {
  DeadlineAware test{DeadlineAware::Params{}};
  warm(test, kMillisecond, kMillisecond, 100);
  EXPECT_EQ(test.sample_count(kMillisecond), 100u);
  // The log-bucketed histogram answers with a bucket midpoint: right
  // order of magnitude, not the exact sample.
  Duration q = test.service_quantile(kMillisecond);
  EXPECT_GE(q, kMillisecond / 2);
  EXPECT_LE(q, 2 * kMillisecond);
  // expected_wait is quantile x depth, by definition.
  EXPECT_EQ(test.expected_wait(10, kMillisecond), 10 * q);
}

TEST(DeadlineAwareTest, QuantileReachesIntoTheTail) {
  // 90 fast + 10 slow samples: the 0.95 quantile must answer from the
  // slow bucket — a mean would repeat the Jensen gap this policy closes.
  DeadlineAware::Params params;
  params.quantile = 0.95;
  DeadlineAware test{params};
  warm(test, kMillisecond, kMillisecond, 90);
  warm(test, kMillisecond, 16 * kMillisecond, 10);
  EXPECT_GE(test.service_quantile(kMillisecond), 8 * kMillisecond);
}

TEST(DeadlineAwareTest, WindowForgetsOldSamples) {
  DeadlineAware test{DeadlineAware::Params{}};
  warm(test, 0, kMillisecond);
  ASSERT_GE(test.sample_count(0), 64u);
  // Two half-window epochs later the evidence is gone and the policy is
  // back to cold-start admission.
  const Time later = 2 * kSecond;
  EXPECT_EQ(test.sample_count(later), 0u);
  EXPECT_TRUE(accept_empty(test, rid(1, 1), dctx(40, 50, later, 1)));
}

TEST(DeadlineAwareTest, ObserveExecutionSamplesBusyGapsOnly) {
  DeadlineAware test{DeadlineAware::Params{}};
  test.observe_execution(1 * kMillisecond, 5);  // first completion: no gap yet
  EXPECT_EQ(test.sample_count(1 * kMillisecond), 0u);
  test.observe_execution(2 * kMillisecond, 4);  // busy gap -> sample
  EXPECT_EQ(test.sample_count(2 * kMillisecond), 1u);
  test.observe_execution(3 * kMillisecond, 0);  // busy gap -> sample, now idle
  EXPECT_EQ(test.sample_count(3 * kMillisecond), 2u);
  // The gap after an idle period says nothing about service time.
  test.observe_execution(400 * kMillisecond, 2);
  EXPECT_EQ(test.sample_count(400 * kMillisecond), 2u);
}

// ---------------------------------------------------------------------------
// QuorumTracker
// ---------------------------------------------------------------------------

TEST(QuorumTracker, CountsDistinctVoters) {
  consensus::QuorumTracker<int> tracker;
  EXPECT_EQ(tracker.vote(1, ReplicaId{0}), 1u);
  EXPECT_EQ(tracker.vote(1, ReplicaId{0}), 1u);  // duplicate vote
  EXPECT_EQ(tracker.vote(1, ReplicaId{1}), 2u);
  EXPECT_TRUE(tracker.reached(1, 2));
  EXPECT_FALSE(tracker.reached(2, 1));
}

TEST(QuorumTracker, EraseResets) {
  consensus::QuorumTracker<int> tracker;
  tracker.vote(5, ReplicaId{0});
  tracker.erase(5);
  EXPECT_EQ(tracker.count(5), 0u);
}

}  // namespace
}  // namespace idem::core
