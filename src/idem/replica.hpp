// The IDEM replica (paper Sections 4 and 5).
//
// Protocol flow for one request:
//   client --REQUEST--> every replica
//   replica: acceptance test -> REJECT to client, or accept + REQUIRE to leader
//   leader:  f+1 REQUIREs -> PROPOSE(ids, sqn, v) to all, once per step
//   replica: PROPOSE -> COMMIT (to the leader only when f = 1, else to all);
//            f+1 commits (leader's proposal counts) + owning the request
//            bodies -> execute in sqn order (a follower once its COMMIT
//            has left: execute_committed)
//   leader:  REPLY to client
//
// Collaborative overload prevention: each replica decides locally whether
// to accept; accepted requests are kept available via delayed forwarding,
// a rejected-request cache and on-demand FETCH. Implicit garbage
// collection advances the window without dedicated progress messages, and
// a view change replaces a crashed leader.
//
// Structurally this is a policy layer over the replication core
// (src/core): the intake phase (core::Intake: acceptance test, r_now,
// forwarding, rejected cache, REQUIRE quorum) is the one SMaRt+PR runs
// too, the view change (core::ViewChange) is the one Paxos runs, and the
// ordered log and client table are shared with the baseline protocols.
// IDEM adds how its REQUIREs leave (aggregated, flushed at the end of a
// step), REQUIRE adoption, a leader that cuts once per step and proposes
// ids, FETCH, implicit garbage collection and state transfer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "app/state_machine.hpp"
#include "common/ids.hpp"
#include "consensus/addresses.hpp"
#include "consensus/messages.hpp"
#include "consensus/quorum.hpp"
#include "core/acceptance.hpp"
#include "core/client_table.hpp"
#include "core/intake.hpp"
#include "core/ordered_log.hpp"
#include "core/timers.hpp"
#include "core/view_change.hpp"
#include "idem/config.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/node.hpp"

namespace idem::core {

/// Counters exposed to experiments, tests and the metrics registry
/// (IdemReplica::register_metrics): the intake's and the agreement's. Each
/// event is counted here once.
struct ReplicaStats : IntakeStats {
  std::uint64_t requests_received = 0;
  std::uint64_t executed = 0;  ///< requests executed (deduplicated)
  std::uint64_t duplicates_skipped = 0;
  std::uint64_t proposals_sent = 0;
  std::uint64_t fetches_sent = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t state_snapshots_sent = 0;  ///< StateResponses built for lagging peers
  std::uint64_t state_transfers = 0;       ///< StateResponses restored here
};

/// An IDEM consensus slot: a binding of request ids, and the commit votes.
struct IdemSlot : BoundSlot<RequestId> {
  RetryGate fetch_gate;  ///< rate-limits FETCH rounds for this slot
};

class IdemReplica final : public sim::Node, Intake::Host, ViewChange<IdemSlot>::Host {
 public:
  IdemReplica(sim::Runtime& sim, sim::Transport& net, ReplicaId id, IdemConfig config,
              std::unique_ptr<app::StateMachine> state_machine,
              std::unique_ptr<AcceptanceTest> acceptance);

  ReplicaId replica_id() const { return me_; }
  ViewId view() const { return views_.view(); }
  bool is_leader() const { return views_.leads(); }
  const ReplicaStats& stats() const { return stats_; }
  const IdemConfig& config() const { return config_; }

  /// Names this replica's series on `registry` under `prefix` ("r0." in the
  /// sim's cluster-wide registry, "" in real mode); read it on the
  /// replica's thread.
  void register_metrics(obs::MetricsRegistry& registry, const std::string& prefix = "") const;

  const Intake& intake() const { return intake_; }
  /// r_now: client-issued requests accepted and not yet executed here.
  std::size_t active_requests() const { return intake_.active_requests(); }

  /// Next sequence number this replica would execute.
  SeqNum next_execute() const { return SeqNum{log_.next_exec()}; }
  /// Start of the consensus window (sqn_low).
  SeqNum window_start() const { return SeqNum{log_.low()}; }

  /// Highest executed operation number per client (duplicate detection).
  std::optional<OpNum> last_executed(ClientId cid) const { return clients_.last_executed(cid); }

  app::StateMachine& state_machine() { return *sm_; }
  const app::StateMachine& state_machine() const { return *sm_; }

  /// Test hook: invoked after each executed request with (sqn, id).
  std::function<void(SeqNum, RequestId)> on_execute;
  /// Test hook: invoked after a state transfer restored the state of every
  /// instance up to `upto`; execution resumes at upto + 1.
  std::function<void(SeqNum upto)> on_restore;

 protected:
  void on_message(sim::NodeId from, const sim::Payload& message) override;
  void on_restart() override;
  Duration message_cost(const sim::Payload& message) const override;
  Duration send_cost(const sim::Payload& message) const override;
  /// Client REQUESTs expose their latency budget to the service discipline
  /// (EDF ordering); everything else is deadline-less.
  Duration message_deadline(const sim::Payload& message) const override;
  /// A follower's execution pass (execute_committed).
  void on_flushed() override { try_execute(); }

 private:
  using Instance = IdemSlot;

  // -- Intake::Host: the node's clock, timers and sends -------------------
  Time now() const override { return sim::Node::now(); }
  sim::TimerId set_timer(Duration delay, sim::TimerCallback fn) override {
    return sim::Node::set_timer(delay, std::move(fn));
  }
  void cancel_timer(sim::TimerId& timer) override { sim::Node::cancel_timer(timer); }
  void send(sim::NodeId to, sim::PayloadPtr message) override {
    sim::Node::send(to, std::move(message));
  }

  // -- request intake ------------------------------------------------------
  void handle_request(const msg::Request& request);
  /// IDEM's REQUIRE leaves aggregated: queued, and flushed when
  /// require_batch_max ids are pending or at the end of the step.
  void require(RequestId id) override;
  void flush_requires();

  // -- agreement -----------------------------------------------------------
  void note_require(ReplicaId voter, RequestId id);
  void try_propose();
  void handle_propose(const msg::Propose& propose);
  void handle_commit(const msg::Commit& commit);
  /// Sends this replica's COMMIT for `inst` and counts its own vote.
  void send_own_commit(std::uint64_t sqn, Instance& inst);
  /// Emits the CommitQuorum trace event once per instance.
  void note_commit_quorum(std::uint64_t sqn, Instance& inst);
  /// Requests missing bodies for `inst` (rate-limited); true if any are
  /// still missing.
  bool fetch_missing(Instance& inst);
  /// Executes what is committed. The leader does so at once: its REPLYs
  /// are on the critical path. A follower's COMMIT is, and its execution
  /// is not, so it executes once this step's sends have left
  /// (Node::after_flush: at once on the simulator, after the loop
  /// iteration's flushes on an event loop).
  void execute_committed();
  void try_execute();
  void execute_instance(std::uint64_t sqn, Instance& instance);

  // -- availability (Section 5.2) -------------------------------------------
  void handle_fetch(ReplicaId from, const msg::Fetch& fetch);

  // -- garbage collection / state transfer (Section 4.4) ---------------------
  void observe_sequence(std::uint64_t sqn, ReplicaId source);
  void advance_window(std::uint64_t new_low);
  /// Ships the live state (snapshot and client table at the execution
  /// head) to a peer whose `have` is behind it; silent otherwise.
  void handle_state_request(const msg::StateRequest& request);
  void handle_state_response(const msg::StateResponse& response);
  void request_state_transfer(ReplicaId source);
  /// Requests state when execution is gapped below a known binding (the
  /// missing instances may be garbage-collected cluster-wide).
  void maybe_request_state();

  // -- view change (Section 4.5) --------------------------------------------
  void arm_progress_timer();
  void note_progress();
  bool has_outstanding_work() const;
  void resend_requires();
  // ViewChange::Host
  void demanded(sim::PayloadPtr viewchange) override;
  void entered(bool demoted) override;
  void repropose(std::uint64_t sqn, const Instance& inst) override;
  void lead(std::uint64_t next_free) override;
  /// Asks `reporter` for its state: this replica leads above the line.
  bool catch_up(std::uint64_t line, ReplicaId reporter) override;

  void multicast(sim::PayloadPtr message);  ///< to all other replicas
  void send_to_leader(sim::PayloadPtr message);
  void reply_to_client(ClientId cid, sim::PayloadPtr message);

  IdemConfig config_;
  ReplicaId me_;
  std::unique_ptr<app::StateMachine> sm_;

  // REQUIRE aggregation.
  std::vector<RequestId> pending_requires_;
  sim::TimerId require_flush_timer_;

  std::uint64_t next_sqn_ = 0;
  sim::TimerId propose_cut_timer_;  ///< pending end-of-step batch cut

  // Consensus instances, window [log_.low(), log_.low() + w).
  OrderedLog<Instance> log_;
  ViewChange<Instance> views_;

  // Execution results for duplicate suppression and re-replies.
  ClientTable clients_;

  bool state_transfer_pending_ = false;
  ReplicaId state_transfer_source_;  ///< the only replica whose response we accept
  sim::TimerId state_retry_timer_;

  sim::TimerId progress_timer_;

  // Service-time variability stream (CostModel::kJitter).
  mutable Rng cost_rng_;

  ReplicaStats stats_;
  Intake intake_;
};

}  // namespace idem::core
