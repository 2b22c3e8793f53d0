#include "smart/replica.hpp"

#include <cassert>

#include "core/lifecycle.hpp"

namespace idem::smart {

namespace core = idem::core;

// ---------------------------------------------------------------------------
// Mod-SMaRt agreement
// ---------------------------------------------------------------------------

SmartAgreement::SmartAgreement(sim::Runtime& sim, sim::Transport& net, ReplicaId id,
                               SmartConfig config,
                               std::unique_ptr<app::StateMachine> state_machine,
                               std::uint64_t cost_stream)
    : sim::Node(sim, net, consensus::replica_address(id), sim::NodeKind::Replica),
      config_(config),
      me_(id),
      sm_(std::move(state_machine)),
      cost_rng_(sim.seed(), cost_stream + id.value) {
  assert(config_.n == 2 * config_.f + 1);
  assert(config_.n <= consensus::VoteSet::kCapacity);  // voter ids fit a VoteSet
  retransmit_tick();
}

void SmartAgreement::on_restart() {
  restart_intake();
  cancel_timer(retransmit_timer_);
  retransmit_tick();
}

void SmartAgreement::retransmit_tick() {
  retransmit_timer_ = set_timer(kRetransmitInterval, [this] { retransmit_tick(); });
  if (!is_leader()) return;
  Instance* head = log_.head();
  if (head == nullptr || !head->has_binding || head->executed) {
    retransmit_stall_.reset();
    return;
  }
  if (retransmit_stall_.stalled_at(log_.next_exec())) {
    auto propose = std::make_shared<msg::SmartPropose>();
    propose->view = view_;
    propose->sqn = SeqNum{log_.next_exec()};
    propose->requests = head->requests;
    multicast(std::move(propose));
  }
}

Duration SmartAgreement::message_cost(const sim::Payload& message) const {
  return costs_.cost(message, cost_rng_);
}

Duration SmartAgreement::send_cost(const sim::Payload& message) const {
  return costs_.send_cost(message, cost_rng_);
}

void SmartAgreement::multicast(sim::PayloadPtr message) {
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (i == me_.value) continue;
    send(consensus::replica_address(ReplicaId{i}), message);
  }
}

void SmartAgreement::on_message(sim::NodeId from, const sim::Payload& message) {
  (void)from;
  const auto* base = dynamic_cast<const msg::Message*>(&message);
  if (base == nullptr) return;
  switch (base->type()) {
    case msg::Type::Request:
      handle_request(static_cast<const msg::Request&>(*base));
      break;
    case msg::Type::SmartPropose:
      handle_propose(static_cast<const msg::SmartPropose&>(*base));
      break;
    case msg::Type::SmartWrite:
      handle_write(static_cast<const msg::SmartWrite&>(*base));
      break;
    case msg::Type::SmartAccept:
      handle_accept(static_cast<const msg::SmartAccept&>(*base));
      break;
    default:
      handle_intake(*base);
      break;
  }
}

void SmartAgreement::handle_request(const msg::Request& request) {
  ++stats_.requests_received;
  const RequestId id = request.id;
  if (clients_.executed(id)) {
    if (auto reply = clients_.cached_reply(id)) {
      send(consensus::client_address(id.cid), std::move(reply));
    }
    return;
  }
  admit(request);
}

void SmartAgreement::try_propose() {
  if (!is_leader()) return;
  const std::uint64_t window_end = log_.next_exec() + kWindowSize;
  while (next_sqn_ < window_end) {
    std::vector<msg::Request> batch = cut_batch();
    if (batch.empty()) break;

    Instance& inst = log_.at(next_sqn_);
    inst.requests = batch;
    inst.has_binding = true;
    inst.own_write_sent = true;  // the leader's proposal implies its WRITE
    inst.write_votes.insert(me_.value);
    for (const msg::Request& request : inst.requests) {
      core::lifecycle::proposed(config_.trace, sim(), me_.value, request.id, next_sqn_);
    }
    core::lifecycle::propose_received(config_.trace, sim(), me_.value, next_sqn_);

    auto propose = std::make_shared<msg::SmartPropose>();
    propose->view = view_;
    propose->sqn = SeqNum{next_sqn_};
    propose->requests = std::move(batch);
    multicast(std::move(propose));
    ++stats_.proposals_sent;
    maybe_advance(next_sqn_);
    ++next_sqn_;
  }
  try_execute();
}

void SmartAgreement::handle_propose(const msg::SmartPropose& propose) {
  const std::uint64_t sqn = propose.sqn.value;
  if (sqn < log_.next_exec()) {
    // Retransmission for an executed instance: the sender lost our votes;
    // repeat WRITE and ACCEPT (idempotent) so it can catch up.
    if (log_.contains(sqn)) {
      auto write = std::make_shared<msg::SmartWrite>();
      write->from = me_;
      write->view = propose.view;
      write->sqn = SeqNum{sqn};
      multicast(std::move(write));
      auto accept = std::make_shared<msg::SmartAccept>();
      accept->from = me_;
      accept->view = propose.view;
      accept->sqn = SeqNum{sqn};
      multicast(std::move(accept));
    }
    return;
  }
  Instance& inst = log_.at(sqn);
  if (!inst.has_binding) {
    inst.requests = propose.requests;
    inst.has_binding = true;
    core::lifecycle::propose_received(config_.trace, sim(), me_.value, sqn);
  }
  inst.write_votes.insert(consensus::leader_of(propose.view, config_.n).value);
  // Sent unconditionally: a duplicate PROPOSE is the leader's loss-recovery
  // retransmission, so our WRITE/ACCEPT may have been lost too.
  auto write = std::make_shared<msg::SmartWrite>();
  write->from = me_;
  write->view = propose.view;
  write->sqn = SeqNum{sqn};
  multicast(std::move(write));
  inst.own_write_sent = true;
  inst.write_votes.insert(me_.value);
  if (inst.own_accept_sent) {
    auto accept = std::make_shared<msg::SmartAccept>();
    accept->from = me_;
    accept->view = view_;
    accept->sqn = SeqNum{sqn};
    multicast(std::move(accept));
  }
  maybe_advance(sqn);
  try_execute();
}

void SmartAgreement::handle_write(const msg::SmartWrite& write) {
  const std::uint64_t sqn = write.sqn.value;
  if (sqn < log_.next_exec()) return;
  Instance& inst = log_.at(sqn);
  inst.write_votes.insert(write.from.value);
  maybe_advance(sqn);
  try_execute();
}

void SmartAgreement::maybe_advance(std::uint64_t sqn) {
  Instance& inst = log_.at(sqn);
  if (inst.write_votes.size() >= config_.quorum() && !inst.own_accept_sent) {
    auto accept = std::make_shared<msg::SmartAccept>();
    accept->from = me_;
    accept->view = view_;
    accept->sqn = SeqNum{sqn};
    multicast(std::move(accept));
    inst.own_accept_sent = true;
    inst.accept_votes.insert(me_.value);
    note_accept_quorum(sqn, inst);
  }
}

void SmartAgreement::note_accept_quorum(std::uint64_t sqn, Instance& inst) {
  core::lifecycle::decision_quorum(config_.trace, sim(), me_.value, sqn, inst,
                                   inst.accept_votes.size(), config_.quorum());
}

void SmartAgreement::handle_accept(const msg::SmartAccept& accept) {
  const std::uint64_t sqn = accept.sqn.value;
  if (sqn < log_.next_exec()) return;
  Instance& inst = log_.at(sqn);
  inst.accept_votes.insert(accept.from.value);
  note_accept_quorum(sqn, inst);
  try_execute();
}

void SmartAgreement::try_execute() {
  for (;;) {
    Instance* inst = log_.head();
    if (inst == nullptr) return;
    if (!inst->has_binding || inst->executed) return;
    if (inst->accept_votes.size() < config_.quorum()) return;

    for (const msg::Request& request : inst->requests) {
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
      release(id);
      // All replicas reply; a CFT client needs just one reply.
      send(consensus::client_address(id.cid), reply);
      core::lifecycle::reply_sent(config_.trace, sim(), me_.value, id);
      if (on_execute) on_execute(SeqNum{log_.next_exec()}, id);
    }
    inst->executed = true;
    log_.gc_executed(kWindowSize);
    log_.advance_head();
  }
}

// ---------------------------------------------------------------------------
// Baseline intake: the leader queues everything
// ---------------------------------------------------------------------------

SmartReplica::SmartReplica(sim::Runtime& sim, sim::Transport& net, ReplicaId id,
                           SmartConfig config, std::unique_ptr<app::StateMachine> state_machine)
    : SmartAgreement(sim, net, id, config, std::move(state_machine), 0xC057'2000ull) {
  batch_.configure({kBatchMax});
}

void SmartReplica::admit(const msg::Request& request) {
  const RequestId id = request.id;
  if (!is_leader()) return;  // followers see the request again in the PROPOSE
  if (queued_.contains(id)) return;
  // No acceptance test: the leader takes everything (accepted always).
  core::lifecycle::accept_verdict(config_.trace, sim(), me_.value, id, true);
  queued_.insert(id);
  batch_.push(request);  // unbounded: no overload protection
  try_propose();
}

std::vector<msg::Request> SmartReplica::cut_batch() {
  std::vector<msg::Request> batch;
  batch_.cut([&](msg::Request& request) {
    batch.push_back(std::move(request));
    return core::BatchPipeline<msg::Request>::Verdict::Take;
  });
  return batch;
}

void SmartReplica::release(RequestId id) { queued_.erase(id); }

void SmartReplica::register_metrics(obs::MetricsRegistry& registry,
                                    const std::string& prefix) const {
  registry.add_gauge(prefix + "inflight", [this] { return static_cast<double>(backlog()); });
  registry.add_counter(prefix + "executed", stats_.executed);
}

}  // namespace idem::smart
