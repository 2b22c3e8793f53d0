// An IDEM replica for real mode. Every real-mode entry point (RealCluster,
// idem_server, the realtime examples) builds its replicas here, so they
// cannot drift apart.
//
// The one real-mode protocol setting: REQUIREs flush at the end of each
// loop iteration. Due zero-delay timers fire after the iteration's I/O
// phase, so every id accepted from one recv burst leaves in one REQUIRE
// without added latency.
//
// How the replica dispatches needs no setting here: on an rpc::EventLoop a
// node models no CPU cost and handles each delivery at once, except that
// under EDF the budgeted REQUESTs of a recv burst drain earliest-due first
// after it (sim/node.hpp).
#pragma once

#include <memory>

#include "idem/replica.hpp"

namespace idem::real {

std::unique_ptr<core::IdemReplica> make_replica(sim::Runtime& runtime, sim::Transport& transport,
                                                ReplicaId id, core::IdemConfig config,
                                                std::unique_ptr<app::StateMachine> state_machine,
                                                std::unique_ptr<core::AcceptanceTest> acceptance);

}  // namespace idem::real
