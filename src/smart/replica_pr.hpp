// Collaborative proactive rejection retrofitted onto the SMaRt-analog
// protocol — the modularity claim of paper Section 4.2 ("implementing
// overload prevention in the form of an individual phase ... makes it
// easier to combine our approach with other consensus protocols"), made
// concrete.
//
// The composition keeps Mod-SMaRt's agreement (SmartAgreement, the same
// code the baseline SmartReplica runs) and puts IDEM's intake phase in
// front of it:
//   - every replica runs a local acceptance test on each REQUEST and
//     either REJECTs to the client or stores the request and REQUIREs it
//     at the leader;
//   - the leader proposes a request once f+1 replicas REQUIREd it (and
//     it owns the body — clients multicast in SMaRt, so it normally does);
//   - accepted-but-unfinished requests are forwarded after a timeout, and
//     rejected bodies stay in a cache, preserving IDEM's liveness
//     guarantee (a request accepted anywhere eventually executes).
// Clients are core::IdemClient, as for every protocol: the baseline's
// clients already multicast and simply never see a REJECT, and the
// reject-quorum semantics (Section 5.3) are protocol-independent. The
// rejected cache is core::RejectedCache, which refreshes an entry on
// repeat rejection — paper Section 4.5: a rejection is ambivalent until
// all n replicas rejected, so the body of a request the client is still
// retrying must not age out beneath it.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "consensus/quorum.hpp"
#include "core/acceptance.hpp"
#include "core/rejected_cache.hpp"
#include "smart/replica.hpp"

namespace idem::smart {

/// The intake phase's knobs (IDEM's, see core::IdemConfig); the agreement
/// takes a SmartConfig.
struct SmartPrConfig {
  std::size_t reject_threshold = 50;
  Duration forward_timeout = 10 * kMillisecond;
  std::size_t rejected_cache_size = 1024;
};

class SmartPrReplica final : public SmartAgreement {
 public:
  SmartPrReplica(sim::Runtime& sim, sim::Transport& net, ReplicaId id, SmartConfig config,
                 SmartPrConfig intake, std::unique_ptr<app::StateMachine> state_machine,
                 std::unique_ptr<core::AcceptanceTest> acceptance);

  std::size_t active_requests() const { return active_.size(); }

 private:
  // Intake phase (IDEM, Section 4.3 / 5.1 / 5.2).
  void admit(const msg::Request& request) override;
  void handle_intake(const msg::Message& message) override;
  std::vector<msg::Request> cut_batch() override;
  void release(RequestId id) override;
  void restart_intake() override;

  void accept_request(RequestId id, std::vector<std::byte> command, bool client_issued);
  void send_require(RequestId id);
  void note_require(ReplicaId voter, RequestId id);
  void handle_forward(const msg::Forward& forward);
  void arm_forward_timer(RequestId id);
  void forward_request(RequestId id);
  const std::vector<std::byte>* find_command(RequestId id) const;

  const SmartPrConfig intake_;
  std::unique_ptr<core::AcceptanceTest> acceptance_;

  std::unordered_map<RequestId, std::vector<std::byte>> requests_;
  std::unordered_set<RequestId> active_;
  std::unordered_map<RequestId, sim::TimerId> forward_timers_;
  core::RejectedCache rejected_;
  consensus::QuorumTracker<RequestId> requires_;
  core::BatchPipeline<RequestId> batch_;  ///< ids with an f+1 REQUIRE quorum
  std::unordered_set<RequestId> in_eligible_;
  std::unordered_set<RequestId> proposed_;
};

}  // namespace idem::smart
