// Client-observed operation history.
//
// A History records every operation a chaos workload invokes — who issued
// it, when it was invoked and completed (in simulated time), how it ended
// (reply / rejection / timeout / still open), the encoded command and,
// for successful operations, the observed result bytes. It is the input
// to the linearizability checker and the unit of replay artifacts: a
// history serializes to canonical JSON whose FNV-1a hash stamps a run so
// a replay can prove it reproduced the exact same observable behavior.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/time.hpp"

namespace idem::check {

/// One client-observed operation.
struct Op {
  /// How the operation ended, as seen by the client.
  enum class Result : std::uint8_t {
    Open,      ///< never completed before the run ended (maybe executed)
    Ok,        ///< REPLY: executed, `output` holds the observed result
    Rejected,  ///< aborted after rejection notifications
    Timeout,   ///< local client timeout (maybe executed)
  };

  std::uint64_t client = 0;  ///< client index in the cluster
  std::uint64_t seq = 0;     ///< per-client sequence number (1-based = onr)
  Time invoke = 0;
  Time complete = -1;  ///< -1 while Open
  Result result = Result::Open;
  /// Rejected only: all n replicas rejected, so the operation is *known*
  /// never to have executed (paper Sec. 5.3 "failure"). A rejection with
  /// only n-f notifications leaves the client ambivalent: the operation
  /// may still have executed, and the checker must treat it like a
  /// timeout.
  bool definitive_reject = false;
  std::vector<std::byte> command;
  std::vector<std::byte> output;  ///< Ok only

  json::Value to_json() const;
  static Op from_json(const json::Value& value);
  bool operator==(const Op&) const = default;
};

const char* op_result_name(Op::Result result);

/// An append-only recording of client-observed operations.
class History {
 public:
  /// Starts recording an operation; returns its index for complete().
  std::size_t begin(std::uint64_t client, std::uint64_t seq,
                    std::span<const std::byte> command, Time now);
  void complete(std::size_t index, Op::Result result, Time now,
                std::span<const std::byte> output, bool definitive_reject = false);

  const std::vector<Op>& ops() const { return ops_; }
  std::vector<Op>& ops() { return ops_; }
  std::size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }
  const Op& operator[](std::size_t i) const { return ops_[i]; }

  std::size_t count(Op::Result result) const;

  /// FNV-1a over the canonical JSON dump: equal hashes <=> equal
  /// client-observable behavior. Stamped into replay artifacts.
  std::uint64_t hash() const;

  json::Value to_json() const;
  static History from_json(const json::Value& value);

  bool operator==(const History&) const = default;

 private:
  std::vector<Op> ops_;
};

}  // namespace idem::check
