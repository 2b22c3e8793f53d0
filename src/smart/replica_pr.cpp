#include "smart/replica_pr.hpp"

#include "core/lifecycle.hpp"

namespace idem::smart {

namespace core = idem::core;

SmartPrReplica::SmartPrReplica(sim::Runtime& sim, sim::Transport& net, ReplicaId id,
                               SmartConfig config, SmartPrConfig intake,
                               std::unique_ptr<app::StateMachine> state_machine,
                               std::unique_ptr<core::AcceptanceTest> acceptance)
    : SmartAgreement(sim, net, id, config, std::move(state_machine), 0xC057'3000ull),
      intake_(intake),
      acceptance_(std::move(acceptance)),
      rejected_(intake.rejected_cache_size) {
  batch_.configure({config_.batch_max});
}

void SmartPrReplica::handle_intake(const msg::Message& message) {
  switch (message.type()) {
    case msg::Type::Require: {
      const auto& require = static_cast<const msg::Require&>(message);
      for (RequestId id : require.ids) note_require(require.from, id);
      break;
    }
    case msg::Type::Forward:
      handle_forward(static_cast<const msg::Forward&>(message));
      break;
    default:
      break;
  }
}

void SmartPrReplica::admit(const msg::Request& request) {
  const RequestId id = request.id;
  if (requests_.contains(id)) return;
  // Requests in the rejected cache are re-tested: the acceptance test is
  // time-varying, so a retransmission may pass now.

  core::AcceptanceContext ctx;
  ctx.active_requests = active_.size();
  ctx.reject_threshold = intake_.reject_threshold;
  ctx.now = now();
  ctx.deadline = request.deadline;
  RejectReason reason = RejectReason::None;
  if (acceptance_->accept(id, request.command, ctx, reason)) {
    core::lifecycle::accept_verdict(config_.trace, now(), me_.value, id, true);
    accept_request(id, request.command, /*client_issued=*/true);
  } else {
    ++stats_.rejected;
    // A reject of a request already in the rejected cache is a
    // retransmission bouncing off it — classify it as such.
    if (rejected_.find(id) != nullptr) reason = RejectReason::RejectedCacheHit;
    core::lifecycle::accept_verdict(config_.trace, now(), me_.value, id, false, reason);
    // insert() refreshes an already-cached entry to the LRU front: every
    // retransmission of an ambivalently rejected request (Section 4.5)
    // keeps its body fetchable.
    rejected_.insert(id, request.command);
    send(consensus::client_address(id.cid), std::make_shared<const msg::Reject>(id, reason));
  }
}

void SmartPrReplica::accept_request(RequestId id, std::vector<std::byte> command,
                                    bool client_issued) {
  requests_[id] = std::move(command);
  rejected_.erase(id);
  if (client_issued) {
    active_.insert(id);
    ++stats_.accepted;
  } else {
    ++stats_.forward_accepted;
    core::lifecycle::forward_accepted(config_.trace, now(), me_.value, id);
  }
  arm_forward_timer(id);
  send_require(id);
}

void SmartPrReplica::send_require(RequestId id) {
  if (is_leader()) {
    note_require(me_, id);
    return;
  }
  auto require = std::make_shared<msg::Require>();
  require->from = me_;
  require->ids = {id};
  send(consensus::replica_address(leader()), std::move(require));
}

void SmartPrReplica::note_require(ReplicaId voter, RequestId id) {
  if (executed(id) || proposed_.contains(id)) return;
  core::lifecycle::require_noted(config_.trace, now(), me_.value, id, voter.value);
  std::size_t votes = requires_.vote(id, voter);
  if (votes >= config_.quorum() && !in_eligible_.contains(id)) {
    in_eligible_.insert(id);
    batch_.push(id);
  }
  try_propose();
}

void SmartPrReplica::handle_forward(const msg::Forward& forward) {
  for (const msg::Request& request : forward.requests) {
    if (executed(request.id) || requests_.contains(request.id)) continue;
    accept_request(request.id, request.command, /*client_issued=*/false);
  }
}

void SmartPrReplica::arm_forward_timer(RequestId id) {
  if (forward_timers_.contains(id)) return;
  forward_timers_[id] = set_timer(intake_.forward_timeout, [this, id] {
    forward_timers_.erase(id);
    forward_request(id);
  });
}

void SmartPrReplica::forward_request(RequestId id) {
  if (executed(id)) return;
  auto it = requests_.find(id);
  if (it == requests_.end()) return;
  auto forward = std::make_shared<msg::Forward>();
  forward->from = me_;
  forward->requests.emplace_back(id, it->second);
  multicast(std::move(forward));
  ++stats_.forwards_sent;
  // The request is overdue, so our REQUIRE may have been lost too
  // (fair-loss links); repeat it alongside the relays.
  send_require(id);
  arm_forward_timer(id);
}

const std::vector<std::byte>* SmartPrReplica::find_command(RequestId id) const {
  if (auto it = requests_.find(id); it != requests_.end()) return &it->second;
  return rejected_.find(id);
}

// The leader only proposes REQUIREd requests whose body it owns (accepted
// or cached).
std::vector<msg::Request> SmartPrReplica::cut_batch() {
  std::vector<msg::Request> batch;
  batch_.cut([&](RequestId id) {
    if (executed(id) || proposed_.contains(id)) {
      in_eligible_.erase(id);
      return core::BatchPipeline<RequestId>::Verdict::Drop;
    }
    const std::vector<std::byte>* body = find_command(id);
    if (body == nullptr) {
      // Required by f+1 replicas but the body has not reached us yet;
      // the forwarding mechanism will deliver it. Keep it eligible.
      return core::BatchPipeline<RequestId>::Verdict::Defer;
    }
    in_eligible_.erase(id);
    proposed_.insert(id);
    requires_.erase(id);
    batch.emplace_back(id, *body);
    return core::BatchPipeline<RequestId>::Verdict::Take;
  });
  return batch;
}

void SmartPrReplica::release(RequestId id) {
  // Free the intake slot and stop the forwarding of this request.
  if (active_.erase(id) > 0) acceptance_->observe_execution(now(), active_.size());
  requests_.erase(id);
  if (auto timer_it = forward_timers_.find(id); timer_it != forward_timers_.end()) {
    cancel_timer(timer_it->second);
    forward_timers_.erase(timer_it);
  }
}

void SmartPrReplica::restart_intake() {
  for (auto& [id, timer] : forward_timers_) cancel_timer(timer);
  forward_timers_.clear();
}

}  // namespace idem::smart
