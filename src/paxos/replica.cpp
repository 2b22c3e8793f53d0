#include "paxos/replica.hpp"

#include <cassert>

#include "core/lifecycle.hpp"

namespace idem::paxos {

namespace core = idem::core;

PaxosReplica::PaxosReplica(sim::Runtime& sim, sim::Transport& net, ReplicaId id,
                           PaxosConfig config, std::unique_ptr<app::StateMachine> state_machine)
    : sim::Node(sim, net, consensus::replica_address(id), sim::NodeKind::Replica),
      config_(config),
      me_(id),
      sm_(std::move(state_machine)),
      views_(*this, log_, sim, id, config.n, config.trace),
      cost_rng_(sim.seed(), 0xC057'1000ull + id.value) {
  assert(config_.n == 2 * config_.f + 1);
  assert(config_.n <= consensus::VoteSet::kCapacity);  // voter ids fit a VoteSet
  batch_.configure({kBatchMax});
  if (is_leader()) send_heartbeat();
  arm_failure_timer();
  retransmit_tick();
}

void PaxosReplica::on_restart() {
  // Pending timers fired as no-ops while down; restart the periodic chains
  // from scratch like the constructor does.
  cancel_timer(heartbeat_timer_);
  cancel_timer(failure_timer_);
  cancel_timer(retransmit_timer_);
  if (is_leader()) send_heartbeat();
  arm_failure_timer();
  retransmit_tick();
}

Duration PaxosReplica::message_cost(const sim::Payload& message) const {
  return costs_.cost(message, cost_rng_);
}

Duration PaxosReplica::send_cost(const sim::Payload& message) const {
  return costs_.send_cost(message, cost_rng_);
}

void PaxosReplica::multicast(sim::PayloadPtr message) {
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (i == me_.value) continue;
    send(consensus::replica_address(ReplicaId{i}), message);
  }
}

std::size_t PaxosReplica::active_requests() const {
  return batch_.size() + inflight_requests_;
}

void PaxosReplica::on_message(sim::NodeId from, const sim::Payload& message) {
  (void)from;
  const auto* base = dynamic_cast<const msg::Message*>(&message);
  if (base == nullptr) return;
  switch (base->type()) {
    case msg::Type::Request:
      handle_request(static_cast<const msg::Request&>(*base));
      break;
    case msg::Type::PaxosPropose:
      handle_propose(static_cast<const msg::PaxosPropose&>(*base));
      break;
    case msg::Type::PaxosAccept:
      handle_accept(static_cast<const msg::PaxosAccept&>(*base));
      break;
    case msg::Type::PaxosHeartbeat:
      handle_heartbeat(static_cast<const msg::PaxosHeartbeat&>(*base));
      break;
    case msg::Type::PaxosViewChange:
      views_.handle(static_cast<const msg::PaxosViewChange&>(*base));
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Request handling (leader only — followers drop client requests)
// ---------------------------------------------------------------------------

void PaxosReplica::handle_request(const msg::Request& request) {
  ++stats_.requests_received;
  if (!is_leader()) return;  // clients discover the leader by timeout

  const RequestId id = request.id;
  if (clients_.executed(id)) {
    if (auto reply = clients_.cached_reply(id)) {
      send(consensus::client_address(id.cid), std::move(reply));
    }
    return;
  }
  if (queued_.contains(id)) return;  // retransmission; already in the pipeline

  // Leader-based rejection (Paxos_LBR): the single leader decides. LBR
  // only ever sheds for load, so the reason is always rt-queue-full.
  if (config_.reject_threshold > 0 && active_requests() >= config_.reject_threshold) {
    ++stats_.rejected;
    core::lifecycle::accept_verdict(config_.trace, sim(), me_.value, id, false,
                                    RejectReason::RtQueueFull);
    send(consensus::client_address(id.cid),
         std::make_shared<const msg::Reject>(id, RejectReason::RtQueueFull));
    return;
  }

  ++stats_.accepted;
  core::lifecycle::accept_verdict(config_.trace, sim(), me_.value, id, true);
  queued_.insert(id);
  batch_.push(request);
  try_propose();
  arm_failure_timer();
}

void PaxosReplica::try_propose() {
  if (!is_leader()) return;
  const std::uint64_t window_end = log_.next_exec() + kWindowSize;
  while (!batch_.empty() && next_sqn_ < window_end) {
    next_sqn_ = log_.skip_bound(next_sqn_);
    if (next_sqn_ >= window_end) break;

    std::vector<msg::Request> batch;
    batch_.cut([&](msg::Request& request) {
      batch.push_back(std::move(request));
      return core::BatchPipeline<msg::Request>::Verdict::Take;
    });
    inflight_requests_ += batch.size();

    Instance& inst = log_.at(next_sqn_);
    inst.view = views_.view();
    inst.items = batch;
    inst.has_binding = true;
    inst.own_vote_sent = true;
    inst.votes.insert(me_.value);
    for (const msg::Request& request : inst.items) {
      core::lifecycle::proposed(config_.trace, sim(), me_.value, request.id, next_sqn_);
    }
    core::lifecycle::propose_received(config_.trace, sim(), me_.value, next_sqn_);

    auto propose = std::make_shared<msg::PaxosPropose>();
    propose->view = views_.view();
    propose->sqn = SeqNum{next_sqn_};
    propose->requests = std::move(batch);
    multicast(std::move(propose));
    ++stats_.proposals_sent;
    ++next_sqn_;
  }
  try_execute();
}

void PaxosReplica::note_accept_quorum(std::uint64_t sqn, Instance& inst) {
  core::lifecycle::decision_quorum(config_.trace, sim(), me_.value, sqn, inst,
                                   inst.votes.size(), config_.quorum());
}

void PaxosReplica::handle_propose(const msg::PaxosPropose& propose) {
  if (!views_.observe(propose.view)) return;
  const std::uint64_t sqn = propose.sqn.value;
  if (sqn < log_.next_exec()) {
    // A retransmission for an instance we already executed: the sender is
    // missing our ACCEPT (it was lost), so repeat it or it stalls forever.
    if (log_.contains(sqn)) {
      auto accept = std::make_shared<msg::PaxosAccept>();
      accept->from = me_;
      accept->view = propose.view;
      accept->sqn = SeqNum{sqn};
      multicast(std::move(accept));
    }
    return;
  }

  views_.adopt(sqn, propose.view, propose.requests);
  Instance& inst = log_.at(sqn);
  if (inst.view != propose.view) return;

  inst.votes.insert(consensus::leader_of(propose.view, config_.n).value);
  // Re-sending on a duplicate PROPOSE makes the accept path idempotent
  // under message loss (the leader retransmits stalled proposals).
  auto accept = std::make_shared<msg::PaxosAccept>();
  accept->from = me_;
  accept->view = inst.view;
  accept->sqn = SeqNum{sqn};
  multicast(std::move(accept));
  inst.own_vote_sent = true;
  inst.votes.insert(me_.value);
  note_accept_quorum(sqn, inst);
  note_liveness();
  try_execute();
}

void PaxosReplica::handle_accept(const msg::PaxosAccept& accept) {
  if (!views_.observe(accept.view)) return;
  Instance* inst = log_.find(accept.sqn.value);
  if (inst == nullptr) return;
  if (inst->view != accept.view) return;
  inst->votes.insert(accept.from.value);
  note_accept_quorum(accept.sqn.value, *inst);
  try_execute();
}

void PaxosReplica::try_execute() {
  for (;;) {
    Instance* inst = log_.head();
    if (inst == nullptr) return;
    if (!inst->has_binding || inst->executed) return;
    if (inst->votes.size() < config_.quorum()) return;

    for (const msg::Request& request : inst->items) {
      const RequestId id = request.id;
      if (clients_.executed(id)) {
        ++stats_.duplicates_skipped;
        continue;
      }
      charge(costs_.apply_jitter(sm_->execution_cost(request.command), cost_rng_));
      std::vector<std::byte> result = sm_->execute(request.command);
      ++stats_.executed;
      core::lifecycle::executed(config_.trace, sim(), me_.value, id, log_.next_exec());
      auto reply = std::make_shared<const msg::Reply>(id, std::move(result));
      clients_.record(id, reply);
      queued_.erase(id);
      if (is_leader()) {
        send(consensus::client_address(id.cid), reply);
        core::lifecycle::reply_sent(config_.trace, sim(), me_.value, id);
      }
      if (on_execute) on_execute(SeqNum{log_.next_exec()}, id);
    }
    if (is_leader() && inflight_requests_ >= inst->items.size()) {
      inflight_requests_ -= inst->items.size();
    }
    inst->executed = true;
    // Old instances are not needed once executed (crash tolerance for the
    // baseline does not include lagging-replica state transfer).
    log_.gc_executed(kWindowSize);
    log_.advance_head();
    note_liveness();
  }
}

// ---------------------------------------------------------------------------
// Liveness: heartbeats and view change
// ---------------------------------------------------------------------------

void PaxosReplica::retransmit_tick() {
  retransmit_timer_ = set_timer(kRetransmitInterval, [this] { retransmit_tick(); });
  if (!is_leader()) {
    retransmit_stall_.reset();
    return;
  }
  Instance* head = log_.head();
  if (head == nullptr || !head->has_binding || head->executed ||
      head->view != views_.view()) {
    retransmit_stall_.reset();
    return;
  }
  if (retransmit_stall_.stalled_at(log_.next_exec())) {
    // The head of the log made no progress for a full interval: assume the
    // PROPOSE (or the accepts) got lost and retransmit.
    auto propose = std::make_shared<msg::PaxosPropose>();
    propose->view = views_.view();
    propose->sqn = SeqNum{log_.next_exec()};
    propose->requests = head->items;
    multicast(std::move(propose));
  }
}

void PaxosReplica::send_heartbeat() {
  if (!is_leader()) return;
  auto heartbeat = std::make_shared<msg::PaxosHeartbeat>();
  heartbeat->from = me_;
  heartbeat->view = views_.view();
  multicast(std::move(heartbeat));
  heartbeat_timer_ = set_timer(config_.heartbeat_interval, [this] {
    heartbeat_timer_ = sim::TimerId{};
    send_heartbeat();
  });
}

void PaxosReplica::handle_heartbeat(const msg::PaxosHeartbeat& heartbeat) {
  if (!views_.observe(heartbeat.view)) return;
  note_liveness();
}

void PaxosReplica::arm_failure_timer() {
  if (failure_timer_.valid()) return;
  failure_timer_ = set_timer(config_.viewchange_timeout, [this] {
    failure_timer_ = sim::TimerId{};
    if (is_leader()) {
      // A leader only abandons its own view when the head of the log is
      // stalled: the quorum is gone (e.g. a follower falsely abandoned
      // the view while another is crashed) and retransmission alone
      // cannot fix that.
      Instance* head = log_.head();
      bool stalled = head != nullptr && head->has_binding && !head->executed;
      if (!stalled) {
        arm_failure_timer();
        return;
      }
    }
    views_.demand(views_.next_target());
  });
}

void PaxosReplica::note_liveness() {
  cancel_timer(failure_timer_);
  arm_failure_timer();
}

void PaxosReplica::demanded(sim::PayloadPtr viewchange) {
  ++stats_.view_changes;
  multicast(std::move(viewchange));
  cancel_timer(failure_timer_);
  arm_failure_timer();
}

void PaxosReplica::entered(bool demoted) {
  if (demoted) {
    cancel_timer(heartbeat_timer_);
    // A demoted leader's pending queue dies with its leadership; clients
    // retransmit to the new leader.
    batch_.clear();
    queued_.clear();
    inflight_requests_ = 0;
  }
  note_liveness();
}

void PaxosReplica::repropose(std::uint64_t sqn, const Instance& inst) {
  auto propose = std::make_shared<msg::PaxosPropose>();
  propose->view = views_.view();
  propose->sqn = SeqNum{sqn};
  propose->requests = inst.items;
  multicast(std::move(propose));
  ++stats_.proposals_sent;
}

void PaxosReplica::lead(std::uint64_t next_free) {
  if (next_sqn_ < next_free) next_sqn_ = next_free;
  send_heartbeat();
  try_propose();
  try_execute();
}

}  // namespace idem::paxos
