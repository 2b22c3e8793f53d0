// IDEM's intake phase (paper Sections 4.3 and 5.1-5.2): acceptance test
// and reject classification, r_now, forwarding, the rejected cache and the
// REQUIRE quorum. IdemReplica and SMaRt+PR (Section 4.2: the phase combines
// with other consensus protocols) both run it. What differs between them
// is a call the replica makes: how a REQUIRE leaves (Host::require), how
// the leader cuts (cut), REQUIRE adoption (adopt), when a body is dropped
// (forget) and the view-change reject reason (admit). DESIGN.md §11.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/histogram.hpp"
#include "common/ids.hpp"
#include "common/reject_reason.hpp"
#include "common/time.hpp"
#include "consensus/messages.hpp"
#include "consensus/quorum.hpp"
#include "core/acceptance.hpp"
#include "core/batch_pipeline.hpp"
#include "core/client_table.hpp"
#include "core/rejected_cache.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "sim/node.hpp"

namespace idem::core {

class ShardGate;

/// The intake's knobs. IdemConfig extends them; SMaRt+PR takes IDEM's.
struct IntakeConfig {
  /// Number of replicas n = 2f + 1.
  std::size_t n = 3;
  /// Tolerated crash faults.
  std::size_t f = 1;

  /// Reject threshold r: concurrently accepted client-issued requests per
  /// replica (paper default RT = 50). The system-wide cap is r_max = n * r.
  std::size_t reject_threshold = 50;

  /// Delay before an accepted-but-unexecuted request is forwarded to the
  /// other replicas (paper: 10 ms).
  Duration forward_timeout = 10 * kMillisecond;

  /// Capacity of the recently-rejected-request cache (Section 5.2).
  std::size_t rejected_cache_size = 1024;

  /// Optional request-lifecycle trace sink (borrowed, may be null). Hooks
  /// are passive: recording must never change the simulation trajectory.
  obs::TraceRecorder* trace = nullptr;

  /// Optional shard admission gate (borrowed, may be null). Sharded
  /// deployments point every replica of a group at its gate; client
  /// REQUESTs whose key routes elsewhere are turned away with a WrongShard
  /// REJECT before the acceptance test runs (core/sharding.hpp). Null =
  /// unsharded: the intake path is untouched.
  const ShardGate* shard_gate = nullptr;

  std::size_t quorum() const { return f + 1; }
};

/// The intake's counters; IDEM's ReplicaStats extends them.
struct IntakeStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;  ///< every REJECT sent: the sum of `rejects`
  std::array<std::uint64_t, kRejectReasonCount> rejects{};  ///< REJECTs sent, by RejectReason
  std::uint64_t forward_accepted = 0;  ///< accepted via FORWARD, bypassing the test
  std::uint64_t forwards_sent = 0;
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

class Intake {
 public:
  /// The replica: its node's clock, timers and sends, and how its REQUIRE
  /// for an id the intake took (accepted, forwarded or adopted) leaves.
  class Host {
   public:
    virtual Time now() const = 0;
    virtual sim::TimerId set_timer(Duration delay, sim::TimerCallback fn) = 0;
    virtual void cancel_timer(sim::TimerId& timer) = 0;
    virtual void send(sim::NodeId to, sim::PayloadPtr message) = 0;
    virtual void require(RequestId id) = 0;
    /// `id` is overdue and was just relayed by FORWARD.
    virtual void forwarded(RequestId id) { (void)id; }

   protected:
    ~Host() = default;
  };

  /// A REQUIRE vote: Ignored (executed or proposed already), Counted, or
  /// the Quorum that made the id eligible.
  enum class Vote { Ignored, Counted, Quorum };

  /// `clients` and `stats` are the replica's; the leader cuts at most
  /// `batch_max` ids.
  Intake(Host& host, ReplicaId me, const ClientTable& clients, IntakeConfig config,
         std::size_t batch_max, IntakeStats& stats, std::unique_ptr<AcceptanceTest> acceptance);
  Intake(const Intake&) = delete;  // forward timers capture `this`
  Intake& operator=(const Intake&) = delete;

  /// A client REQUEST that has not executed here; a reject names the view
  /// change when `in_viewchange`.
  void admit(const msg::Request& request, bool in_viewchange = false);
  void handle_forward(const msg::Forward& forward);
  /// REQUIRE evidence: a body this replica rejected is taken, with no slot.
  void adopt(RequestId id);
  Vote note_require(ReplicaId voter, RequestId id);

  bool has_eligible() const { return !eligible_.empty(); }
  /// Offers eligible ids to `take` in queue order, at most batch_max taken;
  /// executed and proposed ids are dropped, refused ones stay eligible.
  template <typename Take>
  void cut(Take&& take);
  void mark_proposed(RequestId id) { proposed_.insert(id); }

  /// `id` executed: frees its slot (recording the reply latency and any
  /// deadline miss when this replica replied) and stops forwarding it.
  void release(RequestId id, bool replied);
  /// Drops `id`'s body and proposed mark.
  void forget(RequestId id);
  /// Frees the slots a restored state counts executed.
  void drop_executed();

  /// `id`'s body, owned or rejected, or null.
  const std::vector<std::byte>* find(RequestId id) const;
  /// Owned ids not executed here.
  std::vector<RequestId> outstanding() const;

  /// r_now: client-issued requests accepted and not yet executed here.
  std::size_t active_requests() const { return active_.size(); }
  /// r_now ids the client table counts executed (sorted): nothing can
  /// release them any more, so a nonempty result is a leaked slot.
  std::vector<RequestId> leaked_slots() const;

  const IntakeStats& stats() const { return stats_; }
  void register_metrics(obs::MetricsRegistry& registry, const std::string& prefix) const;
  /// The replica restarted: its forward timers died with it.
  void restart();

 private:
  void release_superseded(RequestId newer);
  void accept(RequestId id, std::vector<std::byte> command, bool client_issued,
              Duration deadline = 0);
  void reject(const msg::Request& request, RejectReason reason);
  void arm_forward_timer(RequestId id);
  void cancel_forward_timer(RequestId id);
  void forward(RequestId id);

  Host& host_;
  const ReplicaId me_;
  const ClientTable& clients_;
  const IntakeConfig config_;
  IntakeStats& stats_;
  std::unique_ptr<AcceptanceTest> acceptance_;

  // Owned request bodies (accepted, forwarded, adopted or fetched).
  std::unordered_map<RequestId, std::vector<std::byte>> bodies_;
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

  // Leader-side state, kept on every replica for a new leader.
  consensus::QuorumTracker<RequestId> requires_;
  BatchPipeline<RequestId> eligible_;  ///< ids with an f+1 REQUIRE quorum
  std::unordered_set<RequestId> in_eligible_;
  std::unordered_set<RequestId> proposed_;

  Histogram reply_latency_;  ///< REPLY sent minus REQUEST arrival
};

template <typename Take>
void Intake::cut(Take&& take) {
  eligible_.cut([&](RequestId id) {
    if (clients_.executed(id) || proposed_.contains(id)) {
      in_eligible_.erase(id);
      return BatchPipeline<RequestId>::Verdict::Drop;
    }
    if (!take(id)) return BatchPipeline<RequestId>::Verdict::Defer;
    in_eligible_.erase(id);
    proposed_.insert(id);
    requires_.erase(id);
    return BatchPipeline<RequestId>::Verdict::Take;
  });
}

}  // namespace idem::core
