// Cluster builder: instantiates a complete replicated system (simulator,
// network, replicas, clients) for any protocol variant under test.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "app/ycsb.hpp"
#include "consensus/service_client.hpp"
#include "idem/client.hpp"
#include "idem/replica.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/ticker.hpp"
#include "obs/trace.hpp"
#include "paxos/replica.hpp"
#include "sim/fault_plan.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "smart/replica.hpp"
#include "smart/replica_pr.hpp"

namespace idem::harness {

/// The systems evaluated in the paper (Section 7) plus the AQM ablation.
enum class Protocol {
  Idem,       ///< IDEM with the AQM-prioritized acceptance test
  IdemNoPR,   ///< IDEM with rejection disabled (accept everything)
  IdemNoAQM,  ///< IDEM with plain tail drop (no AQM, no prioritization)
  Paxos,      ///< Kirsch/Amir-style Paxos baseline
  PaxosLBR,   ///< Paxos with leader-based rejection (Section 3.3)
  Smart,      ///< BFT-SMaRt-analog in CFT mode
  SmartPR,    ///< SMaRt-analog + collaborative proactive rejection (modularity demo)
};

const char* protocol_name(Protocol protocol);

/// Observability knobs. Both sinks are off by default; enabling them must
/// not perturb the simulation (tracing adds no events, metrics sampling
/// adds only its own tick events, and neither touches any RNG stream).
struct ObsConfig {
  /// Record per-request lifecycle spans into a Cluster-owned TraceRecorder.
  bool trace = false;
  /// Ring capacity (events) of the trace recorder.
  std::size_t trace_capacity = 1u << 18;
  /// Sample the metrics registry every `metrics_interval`; 0 disables the
  /// registry entirely.
  Duration metrics_interval = 0;
};

struct ClusterConfig {
  Protocol protocol = Protocol::Idem;
  std::size_t n = 3;
  std::size_t f = 1;
  std::size_t clients = 50;
  /// IDEM reject threshold r, or the Paxos_LBR leader threshold.
  std::size_t reject_threshold = 50;
  std::uint64_t seed = 1;

  /// Service-queue order of every replica.
  sim::DisciplineKind discipline = sim::DisciplineKind::Fifo;

  sim::NetworkConfig network;
  /// IDEM's replicas and SMaRt+PR's intake phase; n/f/reject_threshold
  /// overridden.
  core::IdemConfig idem;
  /// The client of every protocol; n/f/leader_only overridden.
  core::IdemClientConfig idem_client;
  paxos::PaxosConfig paxos;

  ObsConfig obs;

  app::YcsbConfig workload = app::YcsbConfig::update_heavy();
  /// Records preloaded into every replica's store before the run.
  bool preload = true;

  /// Optional replacement for the default KvStore application (invoked once
  /// per replica). When set, `preload` is ignored — the factory owns initial
  /// state. Lets chaos and app-genericity tests replicate any
  /// app::StateMachine (e.g. the counter service) through the full harness.
  std::function<std::unique_ptr<app::StateMachine>()> store_factory;

  /// Optional override of the acceptance test for IDEM-family protocols
  /// (invoked once per replica). Defaults to the protocol's standard test
  /// (AQM / tail drop / never-reject).
  std::function<std::unique_ptr<core::AcceptanceTest>(std::size_t replica)>
      acceptance_factory;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterConfig& config() const { return config_; }
  sim::Simulator& simulator() { return *sim_; }
  sim::SimNetwork& network() { return *net_; }

  /// Trace recorder shared by every replica and client, or nullptr when
  /// tracing is disabled (ObsConfig::trace == false).
  obs::TraceRecorder* trace() { return trace_.get(); }
  /// Metrics registry sampled on the simulated-time tick, or nullptr when
  /// ObsConfig::metrics_interval == 0.
  obs::MetricsRegistry* metrics() { return metrics_.get(); }

  std::size_t num_clients() const { return clients_.size(); }
  consensus::ServiceClient& client(std::size_t index) { return *clients_[index]; }

  /// Crashes replica `index` immediately.
  void crash_replica(std::size_t index);

  /// Arms a declarative fault schedule: every fault is scheduled at
  /// `offset + fault.at` and fires against this cluster (leader-relative
  /// targets resolve when the fault fires). May be called repeatedly and
  /// mid-run; windowed faults revert themselves.
  void apply(const sim::FaultPlan& plan, Time offset = 0);

  /// Index of the replica currently believing itself leader (first match).
  std::size_t leader_index() const;

  // Typed accessors (nullptr when the protocol does not match).
  core::IdemReplica* idem_replica(std::size_t index);
  paxos::PaxosReplica* paxos_replica(std::size_t index);
  /// Either SMaRt replica: the baseline or SMaRt+PR.
  smart::SmartAgreement* smart_replica(std::size_t index);
  smart::SmartPrReplica* smart_pr_replica(std::size_t index);

 private:
  std::unique_ptr<app::StateMachine> make_store();
  void register_metrics();

  ClusterConfig config_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<sim::SimNetwork> net_;
  std::unique_ptr<obs::TraceRecorder> trace_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::MetricsTicker> metrics_ticker_;
  std::vector<std::unique_ptr<sim::Node>> replicas_;
  std::vector<std::unique_ptr<sim::Node>> client_nodes_;
  std::vector<consensus::ServiceClient*> clients_;
  std::vector<std::byte> preload_snapshot_;
};

}  // namespace idem::harness
