// Paxos baseline replica (Kirsch & Amir's "Paxos for System Builders"
// style), sharing the simulation substrate with IDEM so the protocols are
// directly comparable — the paper's own methodology (Section 7).
//
// Differences from IDEM that matter for the experiments:
//   - Clients talk to the *leader* only; the leader distributes the full
//     requests, so its in/out links and CPU are the bottleneck.
//   - No overload protection: the leader's pending queue is unbounded and
//     latency explodes past saturation (Figure 2 / Figure 6).
//   - Optional leader-based rejection (Paxos_LBR, paper Section 3.3): the
//     leader alone runs an acceptance test and rejects excess requests —
//     which stops working for the duration of a leader crash + view change
//     (Figure 3 / Figure 10d).
//
// Structurally a policy layer over the replication core (src/core): the
// ordered log, client table and batch pipeline are shared with the other
// protocols, and the view change (core::ViewChange) with IDEM; Paxos
// contributes the leader-only intake, the heartbeat liveness chain and the
// full-request distribution.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "app/state_machine.hpp"
#include "common/ids.hpp"
#include "consensus/addresses.hpp"
#include "consensus/cost_model.hpp"
#include "consensus/messages.hpp"
#include "consensus/quorum.hpp"
#include "core/batch_pipeline.hpp"
#include "core/client_table.hpp"
#include "core/ordered_log.hpp"
#include "core/timers.hpp"
#include "core/view_change.hpp"
#include "obs/trace.hpp"
#include "sim/node.hpp"

namespace idem::paxos {

struct PaxosConfig {
  std::size_t n = 3;
  std::size_t f = 1;
  Duration viewchange_timeout = 1500 * kMillisecond;
  Duration heartbeat_interval = 300 * kMillisecond;

  /// Leader-based rejection (Paxos_LBR): reject new requests when the
  /// number of accepted-but-unexecuted requests at the leader reaches this
  /// threshold. 0 disables rejection (plain Paxos).
  std::size_t reject_threshold = 0;

  /// Optional request-lifecycle trace sink (borrowed, may be null).
  obs::TraceRecorder* trace = nullptr;

  std::size_t quorum() const { return f + 1; }
};

struct PaxosStats {
  std::uint64_t requests_received = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t executed = 0;
  std::uint64_t duplicates_skipped = 0;
  std::uint64_t proposals_sent = 0;
  std::uint64_t view_changes = 0;
};

class PaxosReplica final : public sim::Node, core::ViewChange<core::BoundSlot<msg::Request>>::Host {
 public:
  PaxosReplica(sim::Runtime& sim, sim::Transport& net, ReplicaId id, PaxosConfig config,
               std::unique_ptr<app::StateMachine> state_machine);

  ReplicaId replica_id() const { return me_; }
  ViewId view() const { return views_.view(); }
  bool is_leader() const { return views_.leads(); }
  const PaxosStats& stats() const { return stats_; }
  std::size_t backlog() const { return batch_.size(); }
  SeqNum next_execute() const { return SeqNum{log_.next_exec()}; }

  app::StateMachine& state_machine() { return *sm_; }

  /// Test hook: invoked after each executed request with (sqn, id).
  std::function<void(SeqNum, RequestId)> on_execute;

 protected:
  void on_message(sim::NodeId from, const sim::Payload& message) override;
  void on_restart() override;
  Duration message_cost(const sim::Payload& message) const override;
  Duration send_cost(const sim::Payload& message) const override;

 private:
  /// Request ids per PROPOSE.
  static constexpr std::size_t kBatchMax = 32;
  /// In-flight consensus instances (relative to execution progress).
  static constexpr std::uint64_t kWindowSize = 256;
  /// Leader retransmits the proposal of the oldest unexecuted instance
  /// when it makes no progress for this long (fair-loss links).
  static constexpr Duration kRetransmitInterval = 200 * kMillisecond;

  using Instance = core::BoundSlot<msg::Request>;

  void handle_request(const msg::Request& request);
  void try_propose();
  void handle_propose(const msg::PaxosPropose& propose);
  void handle_accept(const msg::PaxosAccept& accept);
  /// Emits the CommitQuorum trace event once per instance.
  void note_accept_quorum(std::uint64_t sqn, Instance& inst);
  void try_execute();

  void handle_heartbeat(const msg::PaxosHeartbeat& heartbeat);
  void send_heartbeat();
  void retransmit_tick();
  void arm_failure_timer();
  void note_liveness();
  // core::ViewChange::Host
  void demanded(sim::PayloadPtr viewchange) override;
  void entered(bool demoted) override;
  void repropose(std::uint64_t sqn, const Instance& inst) override;
  void lead(std::uint64_t next_free) override;
  /// Paxos has no state transfer: a replica behind the line does not lead,
  /// and its failure timer moves the cluster on to the next view.
  bool catch_up(std::uint64_t, ReplicaId) override { return false; }

  std::size_t active_requests() const;
  void multicast(sim::PayloadPtr message);

  PaxosConfig config_;
  ReplicaId me_;
  std::unique_ptr<app::StateMachine> sm_;

  core::BatchPipeline<msg::Request> batch_;  ///< leader: accepted, not yet proposed
  std::unordered_set<RequestId> queued_;
  std::size_t inflight_requests_ = 0;  ///< proposed, not yet executed

  core::OrderedLog<Instance> log_;
  core::ViewChange<Instance> views_;
  std::uint64_t next_sqn_ = 0;

  core::ClientTable clients_;

  sim::TimerId failure_timer_;
  sim::TimerId heartbeat_timer_;
  sim::TimerId retransmit_timer_;
  core::StallWatermark retransmit_stall_;

  /// The default cost model; its service-time variability stream.
  const consensus::CostModel costs_;
  mutable Rng cost_rng_;

  PaxosStats stats_;
};

}  // namespace idem::paxos
