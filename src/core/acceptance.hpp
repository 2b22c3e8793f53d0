// Acceptance tests (paper Section 5.1).
//
// Whenever a replica receives a new client request it consults its
// acceptance test. The test is local, pluggable, and explicitly allowed to
// be non-deterministic. Implementations provided:
//   - NeverReject:      disables proactive rejection (the IDEM_noPR baseline)
//   - TailDrop:         reject iff the active-request count reached r
//   - AqmPrioritized:   the paper's default — active queue management with
//                       rotating prioritized client groups and a shared PRF
//   - PriorityClasses:  Section 5.1 "further options": per-client priority
//                       categories with per-class admission levels
//   - CostAware:        Section 5.1 "further options": admission based on
//                       the estimated resource cost of the request
//   - DeadlineAware:    beyond the paper — rejects exactly the requests
//                       whose deadline is already un-meetable, using an
//                       online queue-wait estimator (DESIGN.md Section 15)
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/reject_reason.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"

namespace idem::core {

/// Everything a test may consult about the replica's current load.
struct AcceptanceContext {
  /// Requests this replica has accepted and not yet seen executed (r_now).
  std::size_t active_requests = 0;
  /// The configured reject threshold r.
  std::size_t reject_threshold = 0;
  /// Current (simulated) time — drives AQM time slices.
  Time now = 0;
  /// Remaining latency budget of the request (0 = none attached). Measured
  /// against the expected queue wait by deadline-aware policies.
  Duration deadline = 0;
};

/// One verdict, one classification: a policy that says no always says why.
/// (The old split accept()/classify_rejection() double dispatch let new
/// policies forget the classification and re-walked the policy on refusal.)
struct AcceptanceVerdict {
  bool accepted = true;
  RejectReason reason = RejectReason::None;

  static constexpr AcceptanceVerdict yes() { return {true, RejectReason::None}; }
  static constexpr AcceptanceVerdict no(RejectReason why = RejectReason::RtQueueFull) {
    return {false, why};
  }
};

class AcceptanceTest {
 public:
  virtual ~AcceptanceTest() = default;

  /// The single policy entry point: verdict plus, on refusal, the reason.
  /// (Cache-hit and view-change rejects are reclassified by the replica,
  /// which owns that state.)
  virtual AcceptanceVerdict evaluate(RequestId id, std::span<const std::byte> command,
                                     const AcceptanceContext& ctx) = 0;

  /// Convenience wrapper: verdict only.
  bool accept(RequestId id, std::span<const std::byte> command,
              const AcceptanceContext& ctx) {
    return evaluate(id, command, ctx).accepted;
  }

  /// Convenience wrapper: verdict, with the reason written through.
  bool accept(RequestId id, std::span<const std::byte> command,
              const AcceptanceContext& ctx, RejectReason& reason) {
    AcceptanceVerdict verdict = evaluate(id, command, ctx);
    reason = verdict.reason;
    return verdict.accepted;
  }

  /// Execution feedback for policies that estimate queue waits: invoked by
  /// the replica each time a client-issued request finishes executing, with
  /// `backlog` the number of accepted-but-unexecuted requests left (r_now
  /// after the completion). Default: ignored.
  virtual void observe_execution(Time now, std::size_t backlog) {
    (void)now;
    (void)backlog;
  }

  /// Display name for experiment output.
  virtual const char* name() const = 0;
};

/// Accepts everything: IDEM with the rejection mechanism disabled.
class NeverReject final : public AcceptanceTest {
 public:
  AcceptanceVerdict evaluate(RequestId, std::span<const std::byte>,
                             const AcceptanceContext&) override {
    return AcceptanceVerdict::yes();
  }
  const char* name() const override { return "never-reject"; }
};

/// Classic tail drop: accept while r_now < r.
class TailDrop final : public AcceptanceTest {
 public:
  AcceptanceVerdict evaluate(RequestId, std::span<const std::byte>,
                             const AcceptanceContext& ctx) override {
    return ctx.active_requests < ctx.reject_threshold ? AcceptanceVerdict::yes()
                                                      : AcceptanceVerdict::no();
  }
  const char* name() const override { return "tail-drop"; }
};

/// The paper's acceptance test: below 60% of r everything is accepted;
/// above it, clients of the currently prioritized group are tail-dropped
/// at r while all other clients are rejected with probability
/// p = r_now / r, decided by a PRF keyed on (seed, request id) so that all
/// replicas tend toward the same verdict.
class AqmPrioritized final : public AcceptanceTest {
 public:
  struct Params {
    double start_fraction = 0.6;
    Duration time_slice = 2 * kSecond;
    std::size_t group_count = 1;
    std::uint64_t prf_seed = 0;
  };

  explicit AqmPrioritized(Params params);

  AcceptanceVerdict evaluate(RequestId id, std::span<const std::byte> command,
                             const AcceptanceContext& ctx) override;
  const char* name() const override { return "aqm-prioritized"; }

  /// Group of a client: at most r clients per group, assigned statically
  /// by client id. Exposed for tests.
  std::size_t group_of(ClientId cid, std::size_t r) const;

  /// Group prioritized at time `now`.
  std::size_t prioritized_group(Time now) const;

  /// The shared PRF: uniform in [0,1), identical across replicas.
  double prf(RequestId id) const;

 private:
  Params params_;
};

/// Priority categories (Section 5.1, "further options"): a classifier maps
/// each client to a priority class; class k is admitted while
/// r_now < admission_fraction[k] * r. The highest class is always
/// tail-dropped at r, so critical clients are the last to be rejected.
class PriorityClasses final : public AcceptanceTest {
 public:
  using Classifier = std::function<std::size_t(ClientId)>;

  /// `admission_fractions[k]` is the fill level (relative to r) at which
  /// class k stops being admitted; must be ascending. Classes beyond the
  /// vector use 1.0 (tail drop at r).
  PriorityClasses(Classifier classifier, std::vector<double> admission_fractions);

  AcceptanceVerdict evaluate(RequestId id, std::span<const std::byte> command,
                             const AcceptanceContext& ctx) override;
  const char* name() const override { return "priority-classes"; }

 private:
  Classifier classifier_;
  std::vector<double> admission_fractions_;
};

/// Cost-aware admission (Section 5.1, "further options"): an estimator
/// prices each request; expensive requests are rejected earlier than
/// cheap ones, keeping capacity for lightweight traffic under pressure.
class CostAware final : public AcceptanceTest {
 public:
  using CostEstimator = std::function<Duration(std::span<const std::byte>)>;

  /// Requests at or below `cheap_cost` are admitted until r; the admission
  /// level decreases linearly to `min_fraction * r` for requests at
  /// `expensive_cost` and beyond.
  CostAware(CostEstimator estimator, Duration cheap_cost, Duration expensive_cost,
            double min_fraction = 0.25);

  AcceptanceVerdict evaluate(RequestId id, std::span<const std::byte> command,
                             const AcceptanceContext& ctx) override;
  const char* name() const override { return "cost-aware"; }

  /// Admission threshold (in request slots) for a given estimated cost.
  std::size_t admission_limit(Duration cost, std::size_t r) const;

 private:
  CostEstimator estimator_;
  Duration cheap_cost_;
  Duration expensive_cost_;
  double min_fraction_;
};

/// Deadline-aware admission (DESIGN.md Section 15): rejects exactly the
/// requests whose remaining budget cannot cover the expected queue wait —
/// `slack <= (r_now + 1) * service-time-quantile` — instead of
/// tail-dropping blind at r. The wait estimator is a windowed log-bucketed
/// histogram of recent per-request service times, sampled from
/// inter-completion gaps during busy periods (an idle gap says nothing
/// about service time and is skipped), aged out over two rotating
/// half-window epochs. Requests without a deadline fall through to a
/// conventional fallback policy (TailDrop unless another is supplied), and
/// the r cap always holds — deadline traffic cannot starve the protocol of
/// slots.
class DeadlineAware final : public AcceptanceTest {
 public:
  struct Params {
    /// Sliding estimator window; samples older than this are gone after at
    /// most 1.5x (two half-window epochs rotate).
    Duration window = 1 * kSecond;
    /// Cold start: with fewer samples in the window the estimator has no
    /// evidence, so deadline-carrying requests are admitted (up to r).
    std::size_t min_samples = 32;
    /// Service-time quantile backing the wait bound. 0.9 targets the tail
    /// (a mean would repeat the Jensen gap this policy exists to close).
    double quantile = 0.9;
    /// Extra slack demanded beyond the expected wait.
    Duration safety_margin = 0;
  };

  /// `fallback` handles deadline-less requests; defaults to TailDrop.
  explicit DeadlineAware(Params params, std::unique_ptr<AcceptanceTest> fallback = nullptr);

  AcceptanceVerdict evaluate(RequestId id, std::span<const std::byte> command,
                             const AcceptanceContext& ctx) override;
  void observe_execution(Time now, std::size_t backlog) override;
  const char* name() const override { return "deadline-aware"; }

  // -- estimator internals, exposed for tests and experiment output --------

  /// Expected time until a request admitted at depth `depth` (its own slot
  /// included) has executed: depth * service-time quantile.
  Duration expected_wait(std::size_t depth, Time now);

  /// Current per-request service-time estimate (the configured quantile
  /// over the windowed samples); 0 while cold.
  Duration service_quantile(Time now);

  /// Samples currently inside the window (both epochs).
  std::uint64_t sample_count(Time now);

  /// Feeds one service-time sample directly (tests; observe_execution is
  /// the production path).
  void record_sample(Time now, Duration service);

  /// Log-bucketed histogram: bucket b holds samples in [2^b, 2^(b+1)),
  /// with the bucket midpoint as its representative value. 48 buckets
  /// cover 1 ns .. ~78 h.
  static constexpr std::size_t kBuckets = 48;

 private:
  struct Epoch {
    std::array<std::uint32_t, kBuckets> buckets{};
    std::uint64_t total = 0;
  };

  void maybe_rotate(Time now);

  Params params_;
  std::unique_ptr<AcceptanceTest> fallback_;
  Epoch current_;
  Epoch previous_;
  Time epoch_start_ = 0;
  bool epoch_started_ = false;
  // Completion tracking: a gap between consecutive completions is a
  // service-time sample only when the earlier completion left work queued
  // (busy period).
  Time last_completion_ = 0;
  bool have_completion_ = false;
  std::size_t last_backlog_ = 0;
};

}  // namespace idem::core
