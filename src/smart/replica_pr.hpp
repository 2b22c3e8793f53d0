// Collaborative proactive rejection retrofitted onto the SMaRt-analog
// protocol: the modularity claim of paper Section 4.2 ("implementing
// overload prevention in the form of an individual phase ... makes it
// easier to combine our approach with other consensus protocols"), made
// concrete. Both halves are shared code: the agreement is SmartAgreement,
// which the baseline SmartReplica runs, and the intake is core::Intake,
// which IdemReplica runs. This file holds only where they meet:
//   - a REQUIRE leaves at once, one per id, and is repeated with every
//     FORWARD: the leader is static, and no view change re-sends REQUIREs;
//   - the leader cuts as soon as an id is eligible and proposes bodies, so
//     it defers an id whose body has not reached it (a rejected body comes
//     from the rejected cache, so there is no REQUIRE adoption);
//   - a body is dropped at execution: the PROPOSE carried it to every peer.
#pragma once

#include <memory>
#include <vector>

#include "core/acceptance.hpp"
#include "core/intake.hpp"
#include "smart/replica.hpp"

namespace idem::smart {

class SmartPrReplica final : public SmartAgreement, core::Intake::Host {
 public:
  SmartPrReplica(sim::Runtime& sim, sim::Transport& net, ReplicaId id, SmartConfig config,
                 core::IntakeConfig intake, std::unique_ptr<app::StateMachine> state_machine,
                 std::unique_ptr<core::AcceptanceTest> acceptance);

  const core::Intake& intake() const { return intake_; }
  void register_metrics(obs::MetricsRegistry& registry, const std::string& prefix) const override {
    intake_.register_metrics(registry, prefix);
    registry.add_counter(prefix + "executed", stats_.executed);
  }

 private:
  // SmartAgreement's intake hooks.
  void admit(const msg::Request& request) override { intake_.admit(request); }
  void handle_intake(const msg::Message& message) override;
  std::vector<msg::Request> cut_batch() override;
  void release(RequestId id) override;
  void restart_intake() override { intake_.restart(); }

  // core::Intake::Host: the node's clock, timers and sends.
  Time now() const override { return sim::Node::now(); }
  sim::TimerId set_timer(Duration delay, sim::TimerCallback fn) override {
    return sim::Node::set_timer(delay, std::move(fn));
  }
  void cancel_timer(sim::TimerId& timer) override { sim::Node::cancel_timer(timer); }
  void send(sim::NodeId to, sim::PayloadPtr message) override {
    sim::Node::send(to, std::move(message));
  }
  void require(RequestId id) override;
  void forwarded(RequestId id) override { require(id); }

  void note_require(ReplicaId voter, RequestId id);

  core::IntakeStats intake_stats_;
  core::Intake intake_;
};

}  // namespace idem::smart
