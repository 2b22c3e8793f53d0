// BFT-SMaRt-analog replica in its crash-fault-tolerant configuration.
//
// Stands in for the production-grade BFT-SMaRt library the paper compares
// against (Section 7): clients multicast their requests to all replicas,
// the leader batches and proposes full requests, agreement runs through
// Mod-SMaRt-style PROPOSE / WRITE / ACCEPT phases, and every replica
// replies to the client (which needs just one reply in CFT mode). Like
// the original, it has no overload protection — request buffers grow
// without bound and latency explodes past saturation, which is the
// behaviour Figures 2 and 6 capture. Leader fail-over is out of scope for
// this baseline (the paper's crash experiments only involve IDEM variants
// and Paxos_LBR); see DESIGN.md.
//
// The agreement is SmartAgreement, a policy layer over the replication
// core (src/core: ordered log, client table, batch pipeline). It leaves
// the intake — which requests the leader proposes — to its subclass:
// SmartReplica below queues every request at the leader, and
// SmartPrReplica (smart/replica_pr.hpp) puts IDEM's intake phase,
// core::Intake, in front.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
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
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "sim/node.hpp"

namespace idem::smart {

struct SmartConfig {
  std::size_t n = 3;
  std::size_t f = 1;

  /// Optional request-lifecycle trace sink (borrowed, may be null).
  obs::TraceRecorder* trace = nullptr;

  std::size_t quorum() const { return f + 1; }
};

/// The agreement's counters (SMaRt+PR's intake keeps core::IntakeStats).
struct SmartStats {
  std::uint64_t requests_received = 0;
  std::uint64_t executed = 0;
  std::uint64_t duplicates_skipped = 0;
  std::uint64_t proposals_sent = 0;
};

/// The three-phase consensus slot.
struct SmartSlot : core::SlotBase {
  std::vector<msg::Request> requests;
  bool own_write_sent = false;
  bool own_accept_sent = false;
  consensus::VoteSet write_votes;
  consensus::VoteSet accept_votes;
};

/// Mod-SMaRt agreement: the ordered log, the client table, PROPOSE / WRITE
/// / ACCEPT handling, the leader's retransmission, execution and replies.
/// A subclass supplies the intake through the hooks below.
class SmartAgreement : public sim::Node {
 public:
  ReplicaId replica_id() const { return me_; }
  bool is_leader() const { return leader() == me_; }
  const SmartStats& stats() const { return stats_; }
  SeqNum next_execute() const { return SeqNum{log_.next_exec()}; }

  app::StateMachine& state_machine() { return *sm_; }

  /// Names this replica's series on `registry` under `prefix`.
  virtual void register_metrics(obs::MetricsRegistry& registry,
                                const std::string& prefix) const = 0;

  std::function<void(SeqNum, RequestId)> on_execute;

 protected:
  /// Request ids per PROPOSE.
  static constexpr std::size_t kBatchMax = 32;
  /// In-flight consensus instances (relative to execution progress).
  static constexpr std::uint64_t kWindowSize = 256;
  /// Leader retransmits the proposal of the oldest unexecuted instance
  /// when it makes no progress for this long (fair-loss links).
  static constexpr Duration kRetransmitInterval = 200 * kMillisecond;

  /// `cost_stream` names the replica's service-time jitter stream
  /// (CostModel::kJitter); each subclass keeps its own.
  SmartAgreement(sim::Runtime& sim, sim::Transport& net, ReplicaId id, SmartConfig config,
                 std::unique_ptr<app::StateMachine> state_machine, std::uint64_t cost_stream);

  // Intake hooks.
  /// A client REQUEST that has not executed (executed ones are answered
  /// from the reply cache before this is called).
  virtual void admit(const msg::Request& request) = 0;
  /// Any other message that is not agreement traffic.
  virtual void handle_intake(const msg::Message& message) { (void)message; }
  /// The leader's next batch to propose; empty when there is none.
  virtual std::vector<msg::Request> cut_batch() = 0;
  /// `id` executed here; called before its reply is sent.
  virtual void release(RequestId id) = 0;
  /// The replica restarted; called before the agreement re-arms its timers.
  virtual void restart_intake() {}

  ReplicaId leader() const { return consensus::leader_of(view_, config_.n); }
  const core::ClientTable& clients() const { return clients_; }
  /// Proposes batches from cut_batch() while the window has room.
  void try_propose();
  void multicast(sim::PayloadPtr message);

  const SmartConfig config_;
  const ReplicaId me_;
  SmartStats stats_;

 private:
  using Instance = SmartSlot;

  void on_message(sim::NodeId from, const sim::Payload& message) final;
  void on_restart() final;
  Duration message_cost(const sim::Payload& message) const final;
  Duration send_cost(const sim::Payload& message) const final;

  void handle_request(const msg::Request& request);
  void handle_propose(const msg::SmartPropose& propose);
  void handle_write(const msg::SmartWrite& write);
  void handle_accept(const msg::SmartAccept& accept);
  void maybe_advance(std::uint64_t sqn);
  /// Emits the CommitQuorum trace event once per instance.
  void note_accept_quorum(std::uint64_t sqn, Instance& inst);
  void try_execute();
  void retransmit_tick();

  std::unique_ptr<app::StateMachine> sm_;
  ViewId view_;

  core::OrderedLog<Instance> log_;
  std::uint64_t next_sqn_ = 0;

  core::ClientTable clients_;

  sim::TimerId retransmit_timer_;
  core::StallWatermark retransmit_stall_;

  /// The default cost model; its service-time variability stream.
  const consensus::CostModel costs_;
  mutable Rng cost_rng_;
};

/// The baseline: the leader queues every request it receives and proposes
/// it — no acceptance test, no bound on the queue.
class SmartReplica final : public SmartAgreement {
 public:
  SmartReplica(sim::Runtime& sim, sim::Transport& net, ReplicaId id, SmartConfig config,
               std::unique_ptr<app::StateMachine> state_machine);

  std::size_t backlog() const { return batch_.size(); }
  void register_metrics(obs::MetricsRegistry& registry, const std::string& prefix) const override;

 private:
  void admit(const msg::Request& request) override;
  std::vector<msg::Request> cut_batch() override;
  void release(RequestId id) override;

  core::BatchPipeline<msg::Request> batch_;  ///< leader's unbounded request buffer
  std::unordered_set<RequestId> queued_;
};

}  // namespace idem::smart
