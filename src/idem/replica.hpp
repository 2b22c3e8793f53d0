// The IDEM replica (paper Sections 4 and 5).
//
// Protocol flow for one request:
//   client --REQUEST--> every replica
//   replica: acceptance test -> REJECT to client, or accept + REQUIRE to leader
//   leader:  f+1 REQUIREs -> PROPOSE(ids, sqn, v) to all, once per step
//   replica: PROPOSE -> COMMIT (to the leader only when f = 1, else to all);
//            f+1 commits (leader's proposal counts) + owning the request
//            bodies -> execute in sqn order
//   leader:  REPLY to client
//
// Collaborative overload prevention: each replica decides locally whether
// to accept; accepted requests are kept available via delayed forwarding,
// a rejected-request cache and on-demand FETCH. Implicit garbage
// collection advances the window without dedicated progress messages, and
// a view change replaces a crashed leader.
//
// Structurally this is a policy layer over the replication core
// (src/core): the ordered log, view engine, client table, rejected cache
// and batch pipeline are shared with the baseline protocols; IDEM
// contributes the acceptance tests, the REQUIRE/REJECT collaboration and
// the rejection-aware view change.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "app/state_machine.hpp"
#include "common/histogram.hpp"
#include "common/ids.hpp"
#include "common/reject_reason.hpp"
#include "consensus/addresses.hpp"
#include "consensus/messages.hpp"
#include "consensus/quorum.hpp"
#include "core/acceptance.hpp"
#include "core/batch_pipeline.hpp"
#include "core/client_table.hpp"
#include "core/ordered_log.hpp"
#include "core/rejected_cache.hpp"
#include "core/timers.hpp"
#include "core/view_engine.hpp"
#include "idem/config.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/node.hpp"

namespace idem::core {

/// Counters exposed to experiments, tests and the metrics registry
/// (IdemReplica::register_metrics). Each event is counted here once.
struct ReplicaStats {
  std::uint64_t requests_received = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;  ///< every REJECT sent: the sum of `rejects`
  std::array<std::uint64_t, kRejectReasonCount> rejects{};  ///< REJECTs sent, by RejectReason
  std::uint64_t forward_accepted = 0;  ///< accepted via FORWARD, bypassing the test
  std::uint64_t executed = 0;          ///< requests executed (deduplicated)
  std::uint64_t duplicates_skipped = 0;
  std::uint64_t proposals_sent = 0;
  std::uint64_t forwards_sent = 0;
  std::uint64_t fetches_sent = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t state_snapshots_sent = 0;  ///< StateResponses built for lagging peers
  std::uint64_t state_transfers = 0;       ///< StateResponses restored here
  std::uint64_t requires_adopted = 0;  ///< rejected bodies adopted on REQUIRE evidence
  std::uint64_t superseded_released = 0;  ///< abandoned active slots released
  std::uint64_t deadline_misses = 0;  ///< replies sent after the request's budget

  void count_reject(RejectReason reason) {
    ++rejected;
    ++rejects[static_cast<std::size_t>(reason)];
  }
  std::uint64_t rejects_for(RejectReason reason) const {
    return rejects[static_cast<std::size_t>(reason)];
  }
};

class IdemReplica final : public sim::Node {
 public:
  IdemReplica(sim::Runtime& sim, sim::Transport& net, ReplicaId id, IdemConfig config,
              std::unique_ptr<app::StateMachine> state_machine,
              std::unique_ptr<AcceptanceTest> acceptance);

  ReplicaId replica_id() const { return me_; }
  ViewId view() const { return views_.view(); }
  bool is_leader() const {
    return !views_.in_viewchange() && consensus::leader_of(views_.view(), config_.n) == me_;
  }
  const ReplicaStats& stats() const { return stats_; }
  const IdemConfig& config() const { return config_; }

  /// Names this replica's series on `registry` under `prefix` ("r0." in the
  /// sim's cluster-wide registry, "" in real mode); read it on the
  /// replica's thread.
  void register_metrics(obs::MetricsRegistry& registry, const std::string& prefix = "") const;

  /// r_now: client-issued requests accepted and not yet executed here.
  std::size_t active_requests() const { return active_.size(); }
  /// Ids counted in r_now although this replica's client table already
  /// counts them executed (sorted). Nothing can release such a slot any
  /// more, since every path that could order the id drops it: a nonempty
  /// result is a leaked admission slot.
  std::vector<RequestId> leaked_slots() const;

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

 private:
  struct Instance : SlotBase {
    ViewId view;                 ///< view of the newest binding seen
    std::vector<RequestId> ids;  ///< empty until a PROPOSE/COMMIT arrives
    bool own_commit_sent = false;
    std::unordered_set<std::uint32_t> commit_votes;
    RetryGate fetch_gate;  ///< rate-limits FETCH rounds for this slot
  };

  // -- request intake ------------------------------------------------------
  void handle_request(const msg::Request& request);
  void release_superseded(RequestId newer);
  void accept_request(RequestId id, std::vector<std::byte> command, bool client_issued,
                      Duration deadline = 0);
  void reject_request(const msg::Request& request, RejectReason reason);
  void queue_require(RequestId id);
  void flush_requires();

  // -- agreement -----------------------------------------------------------
  void maybe_adopt_required(RequestId id);
  void note_require(ReplicaId voter, RequestId id);
  void try_propose();
  void handle_propose(const msg::Propose& propose);
  void handle_commit(const msg::Commit& commit);
  void adopt_binding(std::uint64_t sqn, ViewId view, const std::vector<RequestId>& ids);
  /// Sends this replica's COMMIT for `inst` and counts its own vote.
  void send_own_commit(std::uint64_t sqn, Instance& inst);
  /// Emits the CommitQuorum trace event once per instance.
  void note_commit_quorum(std::uint64_t sqn, Instance& inst);
  bool observe_view(ViewId view);  ///< true when the message should be processed
  /// Requests missing bodies for `inst` (rate-limited); true if any are
  /// still missing.
  bool fetch_missing(Instance& inst);
  void try_execute();
  void execute_instance(std::uint64_t sqn, Instance& instance);

  // -- availability (Section 5.2) -------------------------------------------
  void handle_forward(const msg::Forward& forward);
  void handle_fetch(ReplicaId from, const msg::Fetch& fetch);
  void arm_forward_timer(RequestId id);
  void cancel_forward_timer(RequestId id);
  void forward_request(RequestId id);
  const std::vector<std::byte>* find_command(RequestId id) const;

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
  void start_viewchange(ViewId target);
  void handle_viewchange(const msg::ViewChange& viewchange);
  void maybe_become_leader(ViewId target);
  void enter_view(ViewId view);
  void resend_requires();

  void multicast(sim::PayloadPtr message);  ///< to all other replicas
  void send_to_leader(sim::PayloadPtr message);
  void reply_to_client(ClientId cid, sim::PayloadPtr message);

  /// Releases an executed request's r_now slot. When this replica replied,
  /// records the reply latency and counts a deadline miss if the reply
  /// left after the request's budget.
  void release_executed(RequestId id, bool replied);

  IdemConfig config_;
  ReplicaId me_;
  std::unique_ptr<app::StateMachine> sm_;
  std::unique_ptr<AcceptanceTest> acceptance_;

  ViewEngine<msg::ViewChange> views_;

  // Owned request bodies (accepted, forwarded, or fetched).
  std::unordered_map<RequestId, std::vector<std::byte>> requests_;
  // Client-issued accepted requests not yet executed (the r_now set), with
  // their REQUEST arrival for reply latency and deadline accounting.
  struct Arrival {
    Time at = 0;
    Duration deadline = 0;  ///< request budget (0 = none)
  };
  std::unordered_map<RequestId, Arrival> active_;
  // Forward timers per accepted-but-unexecuted request.
  std::unordered_map<RequestId, sim::TimerId> forward_timers_;

  // Recently rejected requests, still available for FETCH/agreement.
  RejectedCache rejected_;

  // REQUIRE aggregation.
  std::vector<RequestId> pending_requires_;
  sim::TimerId require_flush_timer_;

  // Leader-side ordering state (maintained on every replica so a new
  // leader can take over immediately).
  consensus::QuorumTracker<RequestId> requires_;
  BatchPipeline<RequestId> batch_;  ///< ids with an f+1 REQUIRE quorum
  std::unordered_set<RequestId> in_eligible_;
  std::unordered_set<RequestId> proposed_;
  std::uint64_t next_sqn_ = 0;
  sim::TimerId propose_cut_timer_;  ///< pending end-of-step batch cut

  // Consensus instances, window [log_.low(), log_.low() + w).
  OrderedLog<Instance> log_;

  // Execution results for duplicate suppression and re-replies.
  ClientTable clients_;

  bool state_transfer_pending_ = false;
  ReplicaId state_transfer_source_;  ///< the only replica whose response we accept
  sim::TimerId state_retry_timer_;

  sim::TimerId progress_timer_;

  // Service-time variability stream (CostModel::jitter).
  mutable Rng cost_rng_;

  ReplicaStats stats_;
  /// REPLY sent minus REQUEST arrival, for each accepted REQUEST this
  /// replica answered as leader (the "reply_latency" series).
  Histogram reply_latency_;
};

}  // namespace idem::core
