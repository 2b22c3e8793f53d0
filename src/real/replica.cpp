#include "real/replica.hpp"

#include "consensus/addresses.hpp"

namespace idem::real {

std::unique_ptr<core::IdemReplica> make_replica(sim::Runtime& runtime, sim::Transport& transport,
                                                ReplicaId id, core::IdemConfig config,
                                                std::unique_ptr<app::StateMachine> state_machine,
                                                std::unique_ptr<core::AcceptanceTest> acceptance) {
  config.costs = consensus::CostModel{0, 0.0, 0, 0.0, 0.0, 0.0, 1.0, 0, 0.0};
  config.require_flush_interval = 0;
  auto replica = std::make_unique<core::IdemReplica>(runtime, transport, id, config,
                                                     std::move(state_machine),
                                                     std::move(acceptance));
  replica->set_inline_dispatch(true);
  // Replicas live below kClientAddressBase: the sender id tells agreement
  // traffic from client REQUESTs.
  replica->set_urgent_classifier(
      [](sim::NodeId from) { return !consensus::is_client_address(from); });
  return replica;
}

}  // namespace idem::real
