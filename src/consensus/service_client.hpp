// Protocol-independent client interface.
//
// The harness drives every protocol's client through this interface so
// experiments (closed-loop load, rejection backoff, latency recording)
// are identical across IDEM, Paxos and the SMaRt analog.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/ids.hpp"
#include "common/reject_reason.hpp"
#include "common/time.hpp"

namespace idem::consensus {

/// Final state of one operation, mirroring the client-side semantics of
/// the paper (Section 5.3): a REPLY (success), an abort after rejection
/// notifications (ambivalence/failure), or a local timeout.
struct Outcome {
  enum class Kind {
    Reply,     ///< success: the request was agreed on and executed
    Rejected,  ///< aborted after n-f (ambivalence) or n (failure) REJECTs,
               ///< or one from the leader of a leader-based protocol
    Timeout,   ///< gave up without conclusive information
  };

  Kind kind = Kind::Reply;
  Time issued = 0;
  Time completed = 0;
  std::vector<std::byte> result;   ///< Reply only
  std::size_t rejects_seen = 0;
  /// The request can never execute: all n replicas rejected one try, or
  /// the leader rejected a request that was never retransmitted.
  bool definitive_failure = false;

  /// Sharded deployments: a WrongShard REJECT aborts the operation
  /// immediately (Kind::Rejected) and reports the rejecting replica's map
  /// epoch + the group that owns the key, so a router can refresh its map
  /// and re-issue. None for ordinary rejections.
  RejectReason redirect_reason = RejectReason::None;
  std::uint64_t redirect_epoch = 0;
  std::uint32_t redirect_group = 0;
  bool wrong_shard() const { return redirect_reason == RejectReason::WrongShard; }

  /// The latency budget this operation was issued with (0 = none). A
  /// Reply that lands after the budget is a deadline miss: the request
  /// executed, but too late to be useful to the caller.
  Duration deadline = 0;

  Duration latency() const { return completed - issued; }
  bool deadline_missed() const {
    return kind == Kind::Reply && deadline > 0 && latency() > deadline;
  }
};

class ServiceClient {
 public:
  virtual ~ServiceClient() = default;

  using Callback = std::function<void(const Outcome&)>;

  /// Submits one operation. At most one operation may be outstanding per
  /// client (paper Section 4.3); `callback` fires exactly once.
  virtual void invoke(std::vector<std::byte> command, Callback callback) = 0;

  /// Latency budget attached to subsequent invoke()s (0 = none). Carried
  /// on the wire when the deadline extension is armed; deadline-aware
  /// replicas reject requests whose budget cannot be met and EDF
  /// disciplines order by it. Default ignores the budget.
  virtual void set_request_deadline(Duration) {}

  virtual ClientId client_id() const = 0;
  virtual bool busy() const = 0;
};

}  // namespace idem::consensus
