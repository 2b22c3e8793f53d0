#include "core/acceptance.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace idem::core {

AqmPrioritized::AqmPrioritized(Params params) : params_(params) {
  if (params_.group_count == 0) params_.group_count = 1;
  if (params_.time_slice <= 0) params_.time_slice = 2 * kSecond;
}

std::size_t AqmPrioritized::group_of(ClientId cid, std::size_t r) const {
  if (r == 0) return 0;
  return (cid.value / r) % params_.group_count;
}

std::size_t AqmPrioritized::prioritized_group(Time now) const {
  auto slice = static_cast<std::uint64_t>(now / params_.time_slice);
  return slice % params_.group_count;
}

double AqmPrioritized::prf(RequestId id) const {
  std::uint64_t h = splitmix64(params_.prf_seed ^ splitmix64(id.cid.value) ^
                               splitmix64(id.onr.value * 0x9E3779B97F4A7C15ull));
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // 53-bit mantissa
}

AcceptanceVerdict AqmPrioritized::evaluate(RequestId id, std::span<const std::byte>,
                                           const AcceptanceContext& ctx) {
  std::size_t r = ctx.reject_threshold;
  if (r == 0) return AcceptanceVerdict::no();
  std::size_t r_now = ctx.active_requests;

  // Hard cap: never exceed r concurrently accepted client requests.
  if (r_now >= r) return AcceptanceVerdict::no();

  // Below the AQM activation point everyone is accepted.
  auto start = static_cast<std::size_t>(params_.start_fraction * static_cast<double>(r));
  if (r_now < start) return AcceptanceVerdict::yes();

  // Prioritized clients are treated as in tail drop (accepted until r).
  if (group_of(id.cid, r) == prioritized_group(ctx.now)) return AcceptanceVerdict::yes();

  // Non-prioritized clients: reject with probability p = r_now / r, using
  // the shared PRF so replicas reach the same verdict for the same request.
  double p = static_cast<double>(r_now) / static_cast<double>(r);
  return prf(id) >= p ? AcceptanceVerdict::yes() : AcceptanceVerdict::no();
}

PriorityClasses::PriorityClasses(Classifier classifier, std::vector<double> admission_fractions)
    : classifier_(std::move(classifier)),
      admission_fractions_(std::move(admission_fractions)) {}

AcceptanceVerdict PriorityClasses::evaluate(RequestId id, std::span<const std::byte>,
                                            const AcceptanceContext& ctx) {
  std::size_t r = ctx.reject_threshold;
  if (r == 0) return AcceptanceVerdict::no();
  if (ctx.active_requests >= r) return AcceptanceVerdict::no();

  std::size_t klass = classifier_ ? classifier_(id.cid) : 0;
  double fraction =
      klass < admission_fractions_.size() ? admission_fractions_[klass] : 1.0;
  auto limit = static_cast<std::size_t>(fraction * static_cast<double>(r));
  return ctx.active_requests < limit ? AcceptanceVerdict::yes() : AcceptanceVerdict::no();
}

CostAware::CostAware(CostEstimator estimator, Duration cheap_cost, Duration expensive_cost,
                     double min_fraction)
    : estimator_(std::move(estimator)),
      cheap_cost_(cheap_cost),
      expensive_cost_(std::max(expensive_cost, cheap_cost + 1)),
      min_fraction_(std::clamp(min_fraction, 0.0, 1.0)) {}

std::size_t CostAware::admission_limit(Duration cost, std::size_t r) const {
  if (cost <= cheap_cost_) return r;
  double span = static_cast<double>(expensive_cost_ - cheap_cost_);
  double excess = std::min(1.0, static_cast<double>(cost - cheap_cost_) / span);
  double fraction = 1.0 - excess * (1.0 - min_fraction_);
  return static_cast<std::size_t>(std::llround(fraction * static_cast<double>(r)));
}

AcceptanceVerdict CostAware::evaluate(RequestId, std::span<const std::byte> command,
                                      const AcceptanceContext& ctx) {
  std::size_t r = ctx.reject_threshold;
  if (r == 0) return AcceptanceVerdict::no();
  if (ctx.active_requests >= r) return AcceptanceVerdict::no();
  Duration cost = estimator_ ? estimator_(command) : 0;
  return ctx.active_requests < admission_limit(cost, r) ? AcceptanceVerdict::yes()
                                                        : AcceptanceVerdict::no();
}

// ---------------------------------------------------------------------------
// DeadlineAware
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kLastBucket = DeadlineAware::kBuckets - 1;

std::size_t bucket_of(Duration service) {
  if (service <= 0) return 0;
  auto bits = static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(service)));
  return std::min(bits - 1, kLastBucket);
}

Duration bucket_mid(std::size_t bucket) {
  // Midpoint of [2^b, 2^(b+1)): 1.5 * 2^b.
  return static_cast<Duration>(3ull << bucket) / 2;
}

}  // namespace

DeadlineAware::DeadlineAware(Params params, std::unique_ptr<AcceptanceTest> fallback)
    : params_(params), fallback_(std::move(fallback)) {
  if (params_.window <= 0) params_.window = 1 * kSecond;
  params_.quantile = std::clamp(params_.quantile, 0.0, 1.0);
  if (fallback_ == nullptr) fallback_ = std::make_unique<TailDrop>();
}

void DeadlineAware::maybe_rotate(Time now) {
  if (!epoch_started_) {
    epoch_started_ = true;
    epoch_start_ = now;
    return;
  }
  const Duration half = params_.window / 2;
  if (half <= 0) return;
  while (now - epoch_start_ >= half) {
    previous_ = current_;
    current_ = Epoch{};
    epoch_start_ += half;
    if (previous_.total == 0 && current_.total == 0) {
      // Both epochs drained: jump straight to now instead of spinning
      // through a long idle gap half-window by half-window.
      epoch_start_ = now;
      break;
    }
  }
}

void DeadlineAware::record_sample(Time now, Duration service) {
  maybe_rotate(now);
  ++current_.buckets[bucket_of(service)];
  ++current_.total;
}

void DeadlineAware::observe_execution(Time now, std::size_t backlog) {
  // A gap between consecutive completions approximates one request's
  // service time only while the replica stayed busy: the previous
  // completion must have left accepted work behind.
  if (have_completion_ && last_backlog_ > 0 && now >= last_completion_) {
    record_sample(now, now - last_completion_);
  } else {
    maybe_rotate(now);
  }
  have_completion_ = true;
  last_completion_ = now;
  last_backlog_ = backlog;
}

std::uint64_t DeadlineAware::sample_count(Time now) {
  maybe_rotate(now);
  return current_.total + previous_.total;
}

Duration DeadlineAware::service_quantile(Time now) {
  maybe_rotate(now);
  const std::uint64_t total = current_.total + previous_.total;
  if (total == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      params_.quantile * static_cast<double>(total - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += current_.buckets[b] + previous_.buckets[b];
    if (seen > rank) return bucket_mid(b);
  }
  return bucket_mid(kBuckets - 1);
}

Duration DeadlineAware::expected_wait(std::size_t depth, Time now) {
  return static_cast<Duration>(depth) * service_quantile(now);
}

AcceptanceVerdict DeadlineAware::evaluate(RequestId id, std::span<const std::byte> command,
                                          const AcceptanceContext& ctx) {
  // Deadline-less traffic is not ours to judge.
  if (ctx.deadline <= 0) return fallback_->evaluate(id, command, ctx);

  // The r cap binds regardless of slack: accepted slots are the protocol's
  // overload contract (r_max = n * r system-wide).
  if (ctx.reject_threshold == 0) return AcceptanceVerdict::no();
  if (ctx.active_requests >= ctx.reject_threshold) return AcceptanceVerdict::no();

  // Cold start: no evidence about service times yet, so no grounds to
  // declare any deadline un-meetable.
  if (sample_count(ctx.now) < params_.min_samples) return AcceptanceVerdict::yes();

  const Duration wait = expected_wait(ctx.active_requests + 1, ctx.now);
  if (ctx.deadline <= wait + params_.safety_margin) {
    return AcceptanceVerdict::no(RejectReason::DeadlineUnmeetable);
  }
  return AcceptanceVerdict::yes();
}

}  // namespace idem::core
