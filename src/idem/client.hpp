// The client of every protocol here (paper Sections 4.1, 5.3 and 7).
//
// IDEM, SMaRt and SMaRt+PR: multicasts each request to all replicas and
// then waits for either a REPLY (success) or REJECTs. With n-f rejects the
// client is in the ambivalence state: the pessimistic strategy aborts
// immediately, the optimistic one waits a configurable extra time for a
// late reply (or the remaining rejects) before aborting. SMaRt replicas
// never reject, so a SMaRt client completes on the first REPLY.
//
// Paxos and Paxos_LBR (leader_only): sends each try to the presumed
// leader only and fails over to the next replica on every retransmission
// (paper Section 7.8: this fail-over plus the view change is why
// Paxos_LBR cannot reject during a leader crash).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "consensus/addresses.hpp"
#include "consensus/messages.hpp"
#include "consensus/quorum.hpp"
#include "consensus/service_client.hpp"
#include "obs/trace.hpp"
#include "sim/node.hpp"

namespace idem::core {

struct IdemClientConfig {
  std::size_t n = 3;
  std::size_t f = 1;

  enum class Strategy { Pessimistic, Optimistic };
  Strategy strategy = Strategy::Optimistic;

  /// Optimistic clients wait this long after the (n-f)th REJECT for a late
  /// reply before abandoning the operation (paper: 5 ms).
  Duration optimistic_wait = 5 * kMillisecond;

  /// Retransmit the request if nothing conclusive was heard for this long.
  Duration retry_interval = 500 * kMillisecond;

  /// Give up entirely after this long (0 = never). Outcome::Timeout.
  Duration operation_timeout = 0;

  /// Leader-based protocols (Paxos, Paxos_LBR): each try goes to the
  /// presumed leader only, every retransmission moves on to the next
  /// replica, and the replica that answers, REPLY or REJECT, becomes the
  /// presumed leader. Its one REJECT ends the operation. harness::Cluster
  /// sets this from the protocol.
  bool leader_only = false;

  /// Optional request-lifecycle trace sink (borrowed, may be null).
  obs::TraceRecorder* trace = nullptr;

  /// This configuration for a client of `replicas` replicas: n =
  /// replicas, and f = (n - 1) / 2 when f is 0. An explicit f is kept.
  /// Real-mode clients (shard::RealClients, real::StormEngine and the
  /// CLIs over them) learn n from their replica list and derive their
  /// quorum sizes here only.
  IdemClientConfig for_replicas(std::size_t replicas) const {
    IdemClientConfig config = *this;
    config.n = replicas;
    if (config.f == 0) config.f = replicas >= 3 ? (replicas - 1) / 2 : 0;
    return config;
  }
};

class IdemClient final : public sim::Node, public consensus::ServiceClient {
 public:
  IdemClient(sim::Runtime& sim, sim::Transport& net, ClientId id, IdemClientConfig config);

  void invoke(std::vector<std::byte> command, Callback callback) override;
  void set_request_deadline(Duration deadline) override { request_deadline_ = deadline; }
  ClientId client_id() const override { return cid_; }
  bool busy() const override { return pending_.has_value(); }

  /// Where a leader_only client sends its next try.
  ReplicaId presumed_leader() const { return presumed_leader_; }

  /// Section 5.3 optimization: invoked the moment the (n-f)th REJECT
  /// arrives (the ambivalence state), with the rejects seen so far. An
  /// optimistic client application can start *preparing* its fallback
  /// here while the client still waits for a possible late reply.
  std::function<void(std::size_t rejects_seen)> on_ambivalence;

 protected:
  void on_message(sim::NodeId from, const sim::Payload& message) override;

 private:
  struct PendingOp {
    RequestId id;
    std::shared_ptr<const msg::Request> request;
    Callback callback;
    Time issued = 0;
    consensus::VoteSet rejects;  ///< replicas that rejected this try
    bool retransmitted = false;
    RejectReason redirect_reason = RejectReason::None;  ///< WrongShard redirect
    std::uint64_t redirect_epoch = 0;
    std::uint32_t redirect_group = 0;
  };

  void send_request();
  void complete(consensus::Outcome::Kind kind, std::vector<std::byte> result);
  void arm_retry();

  IdemClientConfig config_;
  ClientId cid_;
  std::uint64_t onr_ = 0;
  Duration request_deadline_ = 0;  ///< budget stamped on subsequent invokes
  ReplicaId presumed_leader_{0};
  std::optional<PendingOp> pending_;
  sim::TimerId retry_timer_;
  sim::TimerId ambivalence_timer_;
  sim::TimerId deadline_timer_;
};

}  // namespace idem::core
