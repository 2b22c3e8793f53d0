// Rejection-reason taxonomy.
//
// Turns "requests are being rejected" into "requests are being rejected
// *because*": every REJECT (and every transport-level shed that never
// reaches the protocol) is classified into one of these reasons. The
// codes ride in trace-event args, in the per-reason reject counters of
// the metrics registry, and on every REJECT wire message, in sim and real
// mode alike, so a client can distinguish a loaded replica from a stalled
// one.
//
// Values are stable: they appear in exported traces, in /metrics label
// values, and on the wire. Append new reasons before Count.
#pragma once

#include <cstdint>

namespace idem {

enum class RejectReason : std::uint8_t {
  None = 0,                ///< not a rejection / reason unknown
  RtQueueFull = 1,         ///< acceptance test refused: r_now at/above threshold
  RejectedCacheHit = 2,    ///< retransmission of a request already in the rejected cache
  BackpressureShed = 3,    ///< transport dropped the frame: pending-write queue full
  OversizedFrame = 4,      ///< transport dropped the connection: frame over the size cap
  ViewChangeInProgress = 5,  ///< rejected while the replica had no installed view
  ConnectionLimit = 6,     ///< transport shed the connection at accept: the
                           ///< inbound-connection cap was reached
  WrongShard = 7,          ///< key belongs to another replication group; the
                           ///< REJECT carries the newer map epoch + home group
  DeadlineUnmeetable = 8,  ///< deadline-aware admission: the request's slack is
                           ///< below the expected queue wait, so executing it
                           ///< in time is already impossible
  Count,                   ///< one past the last valid reason
};

constexpr std::size_t kRejectReasonCount = static_cast<std::size_t>(RejectReason::Count);

/// Stable kebab-case label (Prometheus label values, trace rendering).
constexpr const char* to_label(RejectReason reason) {
  switch (reason) {
    case RejectReason::None: return "none";
    case RejectReason::RtQueueFull: return "rt-queue-full";
    case RejectReason::RejectedCacheHit: return "rejected-cache-hit";
    case RejectReason::BackpressureShed: return "backpressure-shed";
    case RejectReason::OversizedFrame: return "oversized-frame";
    case RejectReason::ViewChangeInProgress: return "view-change-in-progress";
    case RejectReason::ConnectionLimit: return "connection-limit";
    case RejectReason::WrongShard: return "wrong-shard";
    case RejectReason::DeadlineUnmeetable: return "deadline-unmeetable";
    case RejectReason::Count: break;
  }
  return "invalid";
}

/// True when `raw` names a valid reason (None included).
constexpr bool valid_reject_reason(std::uint64_t raw) {
  return raw < static_cast<std::uint64_t>(RejectReason::Count);
}

/// Decodes a wire/trace byte; out-of-range values map to None (tolerant
/// decode: an old binary reading a newer reason must not throw).
constexpr RejectReason reject_reason_from(std::uint64_t raw) {
  return valid_reject_reason(raw) ? static_cast<RejectReason>(raw) : RejectReason::None;
}

// ---------------------------------------------------------------------------
// Trace-event arg packing (see obs/trace.hpp kind docs).
//
// AcceptVerdict: bit 0 = accepted. Accepts keep the legacy arg == 1
// exactly; rejects pack the reason into bits 8+ (so the legacy "0 means
// reject" test becomes "bit 0 clear").
// RejectSeen: the rejecting replica id stays in the low 32 bits (legacy
// value), the reason the REJECT carried on the wire sits in bits 32+.
// ---------------------------------------------------------------------------

constexpr std::uint64_t pack_accept_verdict(bool accepted, RejectReason reason) {
  return accepted ? 1u : (static_cast<std::uint64_t>(reason) << 8);
}

constexpr bool accept_verdict_accepted(std::uint64_t arg) { return (arg & 1) != 0; }

constexpr RejectReason accept_verdict_reason(std::uint64_t arg) {
  return reject_reason_from(arg >> 8);
}

constexpr std::uint64_t pack_reject_seen(std::uint32_t replica, RejectReason reason) {
  return static_cast<std::uint64_t>(replica) |
         (static_cast<std::uint64_t>(reason) << 32);
}

constexpr std::uint32_t reject_seen_replica(std::uint64_t arg) {
  return static_cast<std::uint32_t>(arg);
}

constexpr RejectReason reject_seen_reason(std::uint64_t arg) {
  return reject_reason_from(arg >> 32);
}

}  // namespace idem
