#include "idem/client.hpp"

#include <cassert>
#include <utility>

namespace idem::core {

IdemClient::IdemClient(sim::Runtime& sim, sim::Transport& net, ClientId id,
                       IdemClientConfig config)
    : sim::Node(sim, net, consensus::client_address(id), sim::NodeKind::Client),
      config_(config),
      cid_(id) {
  assert(config_.n <= consensus::VoteSet::kCapacity);  // replica ids fit a VoteSet
}

void IdemClient::invoke(std::vector<std::byte> command, Callback callback) {
  assert(!pending_ && "one pending request per client");
  ++onr_;
  PendingOp op;
  op.id = RequestId{cid_, OpNum{onr_}};
  op.request = std::make_shared<const msg::Request>(op.id, std::move(command), request_deadline_);
  op.callback = std::move(callback);
  op.issued = now();
  pending_ = std::move(op);
  IDEM_TRACE(config_.trace, now(), obs::TraceEventKind::RequestIssued, id().value, pending_->id);

  send_request();
  arm_retry();
  if (config_.operation_timeout > 0) {
    deadline_timer_ = set_timer(config_.operation_timeout, [this] {
      deadline_timer_ = sim::TimerId{};
      if (pending_) complete(consensus::Outcome::Kind::Timeout, {});
    });
  }
}

void IdemClient::send_request() {
  if (config_.leader_only) {
    send(consensus::replica_address(presumed_leader_), pending_->request);
    return;
  }
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    send(consensus::replica_address(ReplicaId{i}), pending_->request);
  }
}

void IdemClient::arm_retry() {
  cancel_timer(retry_timer_);
  if (config_.retry_interval <= 0) return;
  retry_timer_ = set_timer(config_.retry_interval, [this] {
    retry_timer_ = sim::TimerId{};
    if (!pending_) return;
    IDEM_TRACE(config_.trace, now(), obs::TraceEventKind::RequestRetry, id().value,
               pending_->id);
    // Paper Section 4.5 counts rejections "for this try": a retransmission
    // starts a new try, so rejections of the previous multicast must not
    // carry over. Without this reset, a replica whose acceptance test said
    // no under an earlier load level stays counted forever, and n distinct
    // replicas each rejecting a *different* try adds up to a bogus
    // definitive rejection of a request some replica may still execute
    // (ROADMAP item 1, pinned by the seed-4506 corpus artifact).
    pending_->rejects.clear();
    pending_->retransmitted = true;
    if (config_.leader_only) {
      presumed_leader_ =
          ReplicaId{static_cast<std::uint32_t>((presumed_leader_.value + 1) % config_.n)};
    }
    send_request();
    arm_retry();
  });
}

void IdemClient::on_message(sim::NodeId from, const sim::Payload& message) {
  if (!pending_) return;
  const auto* base = dynamic_cast<const msg::Message*>(&message);
  if (base == nullptr) return;

  if (base->type() == msg::Type::Reply) {
    const auto& reply = static_cast<const msg::Reply&>(*base);
    if (reply.id != pending_->id) return;  // stale reply for an older operation
    if (config_.leader_only) presumed_leader_ = consensus::replica_of_address(from);
    complete(consensus::Outcome::Kind::Reply, reply.result);
    return;
  }

  if (base->type() == msg::Type::Reject) {
    const auto& reject = static_cast<const msg::Reject&>(*base);
    if (reject.id != pending_->id) return;
    IDEM_TRACE(config_.trace, now(), obs::TraceEventKind::RejectSeen, id().value, pending_->id,
               pack_reject_seen(from.value, reject.reason));
    if (reject.reason == RejectReason::WrongShard) {
      // The whole group disowns the key — its gate is deterministic, so one
      // WrongShard is as conclusive as n rejects. Abort immediately and hand
      // the redirect (newer map epoch + home group) to the caller; waiting
      // for the siblings' identical verdicts would only add latency.
      pending_->redirect_reason = RejectReason::WrongShard;
      pending_->redirect_epoch = reject.map_epoch;
      pending_->redirect_group = reject.home_group;
      complete(consensus::Outcome::Kind::Rejected, {});
      return;
    }
    pending_->rejects.insert(from.value);
    if (config_.leader_only) {
      // The leader alone decides (Paxos_LBR): its REJECT ends the operation.
      presumed_leader_ = consensus::replica_of_address(from);
      complete(consensus::Outcome::Kind::Rejected, {});
      return;
    }
    const std::size_t rejects = pending_->rejects.size();

    if (rejects >= config_.n) {
      // Failure state: every replica rejected; abort immediately.
      complete(consensus::Outcome::Kind::Rejected, {});
      return;
    }
    if (rejects >= config_.n - config_.f) {
      // Ambivalence state (Section 5.3).
      if (rejects == config_.n - config_.f && on_ambivalence) on_ambivalence(rejects);
      if (config_.strategy == IdemClientConfig::Strategy::Pessimistic) {
        complete(consensus::Outcome::Kind::Rejected, {});
      } else if (!ambivalence_timer_.valid()) {
        ambivalence_timer_ = set_timer(config_.optimistic_wait, [this] {
          ambivalence_timer_ = sim::TimerId{};
          if (pending_) complete(consensus::Outcome::Kind::Rejected, {});
        });
      }
    }
  }
}

void IdemClient::complete(consensus::Outcome::Kind kind, std::vector<std::byte> result) {
  cancel_timer(retry_timer_);
  cancel_timer(ambivalence_timer_);
  cancel_timer(deadline_timer_);
  IDEM_TRACE(config_.trace, now(), obs::TraceEventKind::RequestOutcome, id().value,
             pending_->id, static_cast<std::uint64_t>(kind));

  consensus::Outcome outcome;
  outcome.kind = kind;
  outcome.issued = pending_->issued;
  outcome.completed = now();
  outcome.result = std::move(result);
  outcome.rejects_seen = pending_->rejects.size();
  // Definitive: the request can never execute. Multicast, that takes all
  // n replicas rejecting one try. Leader-only, the leader's REJECT is
  // definitive on the first try only: after a retransmission an earlier
  // presumed leader may have accepted an earlier try.
  outcome.definitive_failure =
      config_.leader_only ? !pending_->rejects.empty() && !pending_->retransmitted
                          : pending_->rejects.size() >= config_.n;
  outcome.redirect_reason = pending_->redirect_reason;
  outcome.redirect_epoch = pending_->redirect_epoch;
  outcome.redirect_group = pending_->redirect_group;
  outcome.deadline = pending_->request->deadline;

  Callback callback = std::move(pending_->callback);
  pending_.reset();
  callback(outcome);
}

}  // namespace idem::core
