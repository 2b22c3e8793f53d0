#include "real/replica.hpp"

namespace idem::real {

std::unique_ptr<core::IdemReplica> make_replica(sim::Runtime& runtime, sim::Transport& transport,
                                                ReplicaId id, core::IdemConfig config,
                                                std::unique_ptr<app::StateMachine> state_machine,
                                                std::unique_ptr<core::AcceptanceTest> acceptance) {
  config.require_flush_interval = 0;
  return std::make_unique<core::IdemReplica>(runtime, transport, id, config,
                                             std::move(state_machine), std::move(acceptance));
}

}  // namespace idem::real
