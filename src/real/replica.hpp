// An IDEM replica for real mode: the protocol the simulator runs, plus the
// runtime choices that only make sense when the wall clock replaces the
// simulated CPU. Every real-mode entry point (RealCluster, idem_server,
// the realtime examples) builds its replicas here, so they cannot drift
// apart.
//
//   - No cost model: handling a message, or building and restoring a state
//     snapshot, takes however long it takes and charges nothing on top.
//   - REQUIREs flush at the end of each loop iteration: due zero-delay
//     timers fire after the iteration's I/O phase, so every id accepted
//     from one recv burst leaves in one REQUIRE without added latency.
//   - Inline dispatch: a delivery to an idle replica is handled at once,
//     without the event-queue hop that models service time in sim.
//   - Agreement-first service lane: replica-to-replica traffic that arrives
//     while client REQUESTs wait is served ahead of them. Only EDF makes a
//     REQUEST wait (one with a budget skips inline dispatch); under FIFO
//     every delivery is handled inline and the lane stays empty.
#pragma once

#include <memory>

#include "idem/replica.hpp"

namespace idem::real {

std::unique_ptr<core::IdemReplica> make_replica(sim::Runtime& runtime, sim::Transport& transport,
                                                ReplicaId id, core::IdemConfig config,
                                                std::unique_ptr<app::StateMachine> state_machine,
                                                std::unique_ptr<core::AcceptanceTest> acceptance);

}  // namespace idem::real
