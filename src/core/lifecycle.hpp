// Request-lifecycle trace points, hoisted out of the protocol replicas.
//
// Every protocol emits the same span skeleton — accept verdict, proposal,
// decision quorum, execution, reply — so the exporters and the fig6/fig10
// plots work on any protocol's trace unchanged. Keeping the emission
// helpers here (instead of four copies of the IDEM_TRACE incantations)
// makes that invariant structural: a new protocol gets identical lifecycle
// spans by calling these.
//
// All helpers are passive pass-throughs to IDEM_TRACE: they must never
// change the simulation trajectory. Each takes the node's clock (anything
// with now(): a sim::Runtime, an Intake::Host) instead of a timestamp and
// reads it only when a recorder is attached, so an untraced replica never
// reads the clock for a trace event.
#pragma once

#include <cstdint>

#include "common/ids.hpp"
#include "common/reject_reason.hpp"
#include "common/time.hpp"
#include "obs/trace.hpp"

namespace idem::core::lifecycle {

/// Accepts keep arg == 1 exactly (legacy encoding, pinned by trace
/// consumers); rejects carry their RejectReason in arg bits 8+.
template <typename Clock>
inline void accept_verdict([[maybe_unused]] obs::TraceRecorder* trace,
                           [[maybe_unused]] const Clock& clock,
                           [[maybe_unused]] std::uint32_t me, [[maybe_unused]] RequestId id,
                           [[maybe_unused]] bool accepted,
                           [[maybe_unused]] RejectReason reason = RejectReason::None) {
  IDEM_TRACE(trace, clock.now(), obs::TraceEventKind::AcceptVerdict, me, id,
             pack_accept_verdict(accepted, reason));
}

template <typename Clock>
inline void proposed([[maybe_unused]] obs::TraceRecorder* trace,
                     [[maybe_unused]] const Clock& clock, [[maybe_unused]] std::uint32_t me,
                     [[maybe_unused]] RequestId id, [[maybe_unused]] std::uint64_t sqn) {
  IDEM_TRACE(trace, clock.now(), obs::TraceEventKind::Proposed, me, id, sqn);
}

template <typename Clock>
inline void propose_received([[maybe_unused]] obs::TraceRecorder* trace,
                             [[maybe_unused]] const Clock& clock,
                             [[maybe_unused]] std::uint32_t me,
                             [[maybe_unused]] std::uint64_t sqn) {
  IDEM_TRACE(trace, clock.now(), obs::TraceEventKind::ProposeReceived, me, sqn);
}

/// Emits the decision-quorum event once per slot (any protocol: commit
/// votes, accept votes, ...). `votes` is the current vote count.
template <typename Clock, typename Slot>
inline void decision_quorum([[maybe_unused]] obs::TraceRecorder* trace,
                            [[maybe_unused]] const Clock& clock,
                            [[maybe_unused]] std::uint32_t me,
                            [[maybe_unused]] std::uint64_t sqn, Slot& slot, std::size_t votes,
                            std::size_t quorum) {
  if (slot.quorum_traced || votes < quorum) return;
  slot.quorum_traced = true;
  IDEM_TRACE(trace, clock.now(), obs::TraceEventKind::CommitQuorum, me, sqn);
}

template <typename Clock>
inline void executed([[maybe_unused]] obs::TraceRecorder* trace,
                     [[maybe_unused]] const Clock& clock, [[maybe_unused]] std::uint32_t me,
                     [[maybe_unused]] RequestId id, [[maybe_unused]] std::uint64_t sqn) {
  IDEM_TRACE(trace, clock.now(), obs::TraceEventKind::Executed, me, id, sqn);
}

template <typename Clock>
inline void reply_sent([[maybe_unused]] obs::TraceRecorder* trace,
                       [[maybe_unused]] const Clock& clock, [[maybe_unused]] std::uint32_t me,
                       [[maybe_unused]] RequestId id) {
  IDEM_TRACE(trace, clock.now(), obs::TraceEventKind::ReplySent, me, id);
}

template <typename Clock>
inline void viewchange_start([[maybe_unused]] obs::TraceRecorder* trace,
                             [[maybe_unused]] const Clock& clock,
                             [[maybe_unused]] std::uint32_t me,
                             [[maybe_unused]] std::uint64_t target) {
  IDEM_TRACE(trace, clock.now(), obs::TraceEventKind::ViewChangeStart, me, target);
}

template <typename Clock>
inline void viewchange_done([[maybe_unused]] obs::TraceRecorder* trace,
                            [[maybe_unused]] const Clock& clock,
                            [[maybe_unused]] std::uint32_t me,
                            [[maybe_unused]] std::uint64_t view) {
  IDEM_TRACE(trace, clock.now(), obs::TraceEventKind::ViewChangeDone, me, view);
}

}  // namespace idem::core::lifecycle
