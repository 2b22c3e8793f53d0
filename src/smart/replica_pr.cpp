#include "smart/replica_pr.hpp"

namespace idem::smart {

namespace core = idem::core;

SmartPrReplica::SmartPrReplica(sim::Runtime& sim, sim::Transport& net, ReplicaId id,
                               SmartConfig config, core::IntakeConfig intake,
                               std::unique_ptr<app::StateMachine> state_machine,
                               std::unique_ptr<core::AcceptanceTest> acceptance)
    : SmartAgreement(sim, net, id, config, std::move(state_machine), 0xC057'3000ull),
      intake_(*this, id, clients(), intake, kBatchMax, intake_stats_,
              std::move(acceptance)) {}

void SmartPrReplica::handle_intake(const msg::Message& message) {
  switch (message.type()) {
    case msg::Type::Require: {
      const auto& require = static_cast<const msg::Require&>(message);
      for (RequestId id : require.ids) note_require(require.from, id);
      break;
    }
    case msg::Type::Forward:
      intake_.handle_forward(static_cast<const msg::Forward&>(message));
      break;
    default:
      break;
  }
}

void SmartPrReplica::require(RequestId id) {
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
  if (intake_.note_require(voter, id) != core::Intake::Vote::Ignored) try_propose();
}

std::vector<msg::Request> SmartPrReplica::cut_batch() {
  std::vector<msg::Request> batch;
  intake_.cut([&](RequestId id) {
    // Required by f+1 replicas but the body has not reached us yet; the
    // forwarding mechanism will deliver it. Keep it eligible.
    const std::vector<std::byte>* body = intake_.find(id);
    if (body == nullptr) return false;
    batch.emplace_back(id, *body);
    return true;
  });
  return batch;
}

void SmartPrReplica::release(RequestId id) {
  intake_.release(id, /*replied=*/true);  // every replica replies
  intake_.forget(id);
}

}  // namespace idem::smart
