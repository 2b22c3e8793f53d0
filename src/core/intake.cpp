#include "core/intake.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "consensus/addresses.hpp"
#include "core/lifecycle.hpp"
#include "core/sharding.hpp"

namespace idem::core {

Intake::Intake(Host& host, ReplicaId me, const ClientTable& clients, IntakeConfig config,
               std::size_t batch_max, IntakeStats& stats,
               std::unique_ptr<AcceptanceTest> acceptance)
    : host_(host), me_(me), clients_(clients), config_(config), stats_(stats),
      acceptance_(std::move(acceptance)), rejected_(config.rejected_cache_size) {
  assert(acceptance_ != nullptr);
  eligible_.configure({.batch_max = batch_max});
}

void Intake::admit(const msg::Request& request, bool in_viewchange) {
  const RequestId id = request.id;

  // This request is proof that every lower-numbered operation of the same
  // client is resolved — reclaim any their abandoned copies still hold.
  release_superseded(id);

  if (bodies_.contains(id)) return;  // already accepted; agreement is underway

  // Shard admission (sharded deployments only): foreign keys are turned
  // away with a redirect before the acceptance test, frozen ranges reject
  // retryably mid-reconfiguration. It runs after the replica's duplicate
  // suppression, so a retransmission of a request executed before its
  // range moved still gets the cached reply instead of a bogus redirect.
  if (config_.shard_gate != nullptr) {
    const ShardVerdict verdict = config_.shard_gate->admit(request.command);
    if (verdict.kind == ShardVerdict::Kind::WrongShard) {
      stats_.count_reject(RejectReason::WrongShard);
      lifecycle::accept_verdict(config_.trace, host_, me_.value, id, false,
                                RejectReason::WrongShard);
      auto reject = std::make_shared<msg::Reject>(id, RejectReason::WrongShard);
      reject->map_epoch = verdict.map_epoch;
      reject->home_group = verdict.home_group;
      // Not cached in rejected_: the body must never be adopted into this
      // group's agreement via REQUIRE/FETCH once the key routes elsewhere.
      host_.send(consensus::client_address(id.cid), std::move(reject));
      return;
    }
    if (verdict.kind == ShardVerdict::Kind::Frozen) {
      reject(request, RejectReason::ViewChangeInProgress);
      return;
    }
  }

  // A previously rejected request (still cached) is re-tested below: the
  // acceptance test is explicitly time-varying (Section 5.1), so a
  // retransmission may well be accepted now that load has dropped —
  // accept() then promotes the body out of the cache.
  AcceptanceContext ctx;
  ctx.active_requests = active_.size();
  ctx.reject_threshold = config_.reject_threshold;
  ctx.now = host_.now();
  ctx.deadline = request.deadline;
  const AcceptanceVerdict verdict = acceptance_->evaluate(id, request.command, ctx);
  if (verdict.accepted) {
    lifecycle::accept_verdict(config_.trace, host_, me_.value, id, true);
    accept(id, request.command, /*client_issued=*/true, request.deadline);
    return;
  }
  // The replica's classification outranks the test's generic verdict: a
  // reject during a view change names the view change, and a reject of a
  // request already sitting in the rejected cache is a retransmission
  // bouncing off it.
  RejectReason reason = verdict.reason;
  if (in_viewchange) {
    reason = RejectReason::ViewChangeInProgress;
  } else if (rejected_.contains(id)) {
    reason = RejectReason::RejectedCacheHit;
  }
  reject(request, reason);
}

void Intake::release_superseded(RequestId newer) {
  // Clients issue one operation at a time: an incoming (cid, onr) means
  // every (cid, onr' < onr) is resolved from the client's point of view.
  // One of those may still sit in active_ here — accepted by this replica,
  // rejected by enough others that the client gave up — where it can never
  // be executed or replied to (the client table supersedes it the moment
  // the newer operation executes, and forward/REQUIRE/propose all drop
  // superseded ids). Erase it so it stops counting against r_now; keep the
  // body findable through the rejected cache in case a concurrent binding
  // still FETCHes it.
  std::vector<RequestId> stale;  // active_ is capped at r, so the sweep is O(r)
  for (const auto& [id, arrival] : active_) {
    if (id.cid == newer.cid && id.onr.value < newer.onr.value) stale.push_back(id);
  }
  for (const RequestId& id : stale) {
    active_.erase(id);
    cancel_forward_timer(id);
    // A proposed id is bound to an instance: execution may still need the
    // body, and the replica drops it itself (forget).
    if (auto body_it = bodies_.find(id); body_it != bodies_.end() && !proposed_.contains(id)) {
      rejected_.insert(id, std::move(body_it->second));
      bodies_.erase(body_it);
    }
    ++stats_.superseded_released;
  }
}

void Intake::accept(RequestId id, std::vector<std::byte> command, bool client_issued,
                    Duration deadline) {
  bodies_[id] = std::move(command);
  rejected_.erase(id);
  if (client_issued) {
    active_.insert_or_assign(id, Arrival{host_.now(), deadline});
    ++stats_.accepted;
  } else {
    ++stats_.forward_accepted;
    IDEM_TRACE(config_.trace, host_.now(), obs::TraceEventKind::ForwardAccepted, me_.value, id);
  }
  arm_forward_timer(id);
  host_.require(id);
}

void Intake::reject(const msg::Request& request, RejectReason reason) {
  lifecycle::accept_verdict(config_.trace, host_, me_.value, request.id, false, reason);
  stats_.count_reject(reason);
  // A repeat rejection refreshes the cached body (Section 4.5).
  rejected_.insert(request.id, request.command);
  host_.send(consensus::client_address(request.id.cid),
             std::make_shared<const msg::Reject>(request.id, reason));
}

void Intake::handle_forward(const msg::Forward& forward) {
  for (const msg::Request& request : forward.requests) {
    if (clients_.executed(request.id) || bodies_.contains(request.id)) continue;
    // Forwarded requests are accepted regardless of the current load
    // (Section 4.3): some replica accepted them, so they must be ordered.
    accept(request.id, request.command, /*client_issued=*/false);
  }
}

void Intake::adopt(RequestId id) {
  if (bodies_.contains(id) || clients_.executed(id) || proposed_.contains(id)) return;
  const std::vector<std::byte>* body = rejected_.find(id);
  if (body == nullptr) return;
  // The REQUIRE proves another replica accepted this request, so it must be
  // ordered regardless of our verdict — exactly the FORWARD-acceptance
  // argument, minus the forward-timeout wait. Non-client-issued: adoption
  // must not consume an r_now slot. (*body is copied into the argument
  // before accept() evicts it from the cache.)
  accept(id, *body, /*client_issued=*/false);
  ++stats_.requires_adopted;
}

Intake::Vote Intake::note_require(ReplicaId voter, RequestId id) {
  if (clients_.executed(id) || proposed_.contains(id)) return Vote::Ignored;
  IDEM_TRACE(config_.trace, host_.now(), obs::TraceEventKind::RequireNoted, me_.value, id,
             voter.value);
  if (requires_.vote(id, voter) < config_.quorum() || in_eligible_.contains(id)) {
    return Vote::Counted;
  }
  in_eligible_.insert(id);
  eligible_.push(id);
  return Vote::Quorum;
}

void Intake::release(RequestId id, bool replied) {
  cancel_forward_timer(id);
  auto it = active_.find(id);
  if (it == active_.end()) return;  // arrived via FORWARD/FETCH, not a client REQUEST
  if (replied) {
    const Duration latency = host_.now() - it->second.at;
    reply_latency_.record(latency);
    if (it->second.deadline > 0 && latency > it->second.deadline) ++stats_.deadline_misses;
  }
  active_.erase(it);
  acceptance_->observe_execution(host_.now(), active_.size());
}

void Intake::forget(RequestId id) {
  bodies_.erase(id);
  proposed_.erase(id);
}

void Intake::drop_executed() {
  for (RequestId id : leaked_slots()) {
    cancel_forward_timer(id);
    active_.erase(id);
  }
}

const std::vector<std::byte>* Intake::find(RequestId id) const {
  if (auto it = bodies_.find(id); it != bodies_.end()) return &it->second;
  return rejected_.find(id);
}

std::vector<RequestId> Intake::outstanding() const {
  std::vector<RequestId> ids;
  for (const auto& [id, command] : bodies_) {
    if (!clients_.executed(id)) ids.push_back(id);
  }
  return ids;
}

std::vector<RequestId> Intake::leaked_slots() const {
  std::vector<RequestId> leaked;
  for (const auto& [id, arrival] : active_) {
    if (clients_.executed(id)) leaked.push_back(id);
  }
  std::sort(leaked.begin(), leaked.end());
  return leaked;
}

void Intake::register_metrics(obs::MetricsRegistry& registry, const std::string& prefix) const {
  registry.add_gauge(prefix + "inflight",
                     [this] { return static_cast<double>(active_.size()); });
  registry.add_counter(prefix + "accepted", stats_.accepted);
  registry.add_counter(prefix + "rejected", stats_.rejected);
  for (std::size_t i = 0; i < kRejectReasonCount; ++i) {
    const auto reason = static_cast<RejectReason>(i);
    // The transport counts the sheds that never reach the replica.
    if (reason == RejectReason::BackpressureShed || reason == RejectReason::OversizedFrame ||
        reason == RejectReason::ConnectionLimit) {
      continue;
    }
    registry.add_counter(prefix + obs::reject_series(reason), stats_.rejects[i]);
  }
  registry.add_counter(prefix + "deadline_miss", stats_.deadline_misses);
  registry.add_counter(prefix + "replies",
                       [this] { return static_cast<double>(reply_latency_.count()); });
  registry.add_histogram(prefix + "reply_latency", reply_latency_);
}

void Intake::restart() {
  for (auto& [id, timer] : forward_timers_) host_.cancel_timer(timer);
  forward_timers_.clear();
}

void Intake::arm_forward_timer(RequestId id) {
  if (forward_timers_.contains(id)) return;
  forward_timers_[id] = host_.set_timer(config_.forward_timeout, [this, id] {
    forward_timers_.erase(id);
    forward(id);
  });
}

void Intake::cancel_forward_timer(RequestId id) {
  auto it = forward_timers_.find(id);
  if (it == forward_timers_.end()) return;
  host_.cancel_timer(it->second);
  forward_timers_.erase(it);
}

void Intake::forward(RequestId id) {
  if (clients_.executed(id)) return;
  auto body_it = bodies_.find(id);
  if (body_it == bodies_.end()) return;

  auto forward = std::make_shared<msg::Forward>();
  forward->from = me_;
  forward->requests.emplace_back(id, body_it->second);
  sim::PayloadPtr message = std::move(forward);
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (i != me_.value) host_.send(consensus::replica_address(ReplicaId{i}), message);
  }
  ++stats_.forwards_sent;
  host_.forwarded(id);
  // Keep relaying periodically until the request is executed (fair-loss
  // links: eventual delivery needs retransmission).
  arm_forward_timer(id);
}

}  // namespace idem::core
