#include "harness/cluster.hpp"

#include <cassert>

#include "idem/acceptance.hpp"

namespace idem::harness {

namespace {
/// Sample rows reserved up front so steady-state sampling never allocates.
constexpr std::size_t kMetricsReserveRows = 4096;
}  // namespace

const char* protocol_name(Protocol protocol) {
  switch (protocol) {
    case Protocol::Idem: return "IDEM";
    case Protocol::IdemNoPR: return "IDEM_noPR";
    case Protocol::IdemNoAQM: return "IDEM_noAQM";
    case Protocol::Paxos: return "Paxos";
    case Protocol::PaxosLBR: return "Paxos_LBR";
    case Protocol::Smart: return "BFT-SMaRt";
    case Protocol::SmartPR: return "SMaRt+PR";
  }
  return "?";
}

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  sim_ = std::make_unique<sim::Simulator>(config_.seed);
  net_ = std::make_unique<sim::SimNetwork>(*sim_, config_.network);
  if (config_.obs.trace) {
    trace_ = std::make_unique<obs::TraceRecorder>(config_.obs.trace_capacity);
  }

  // Build the load phase's image once; every replica restores it, so all
  // start from the identical state without replaying the load phase.
  if (config_.preload && !config_.store_factory) {
    preload_snapshot_ = app::YcsbWorkload::load_image(config_.workload);
  }

  const std::size_t n = config_.n;
  // IDEM's knobs: its replicas' and SMaRt+PR's intake phase.
  core::IdemConfig idem = config_.idem;
  idem.n = n;
  idem.f = config_.f;
  idem.reject_threshold = config_.reject_threshold;
  idem.trace = trace_.get();
  auto acceptance = [&](std::size_t i) -> std::unique_ptr<core::AcceptanceTest> {
    if (config_.acceptance_factory) return config_.acceptance_factory(i);
    if (config_.protocol == Protocol::IdemNoPR) return std::make_unique<core::NeverReject>();
    if (config_.protocol == Protocol::IdemNoAQM) return std::make_unique<core::TailDrop>();
    return core::make_default_acceptance(idem, config_.clients);
  };
  switch (config_.protocol) {
    case Protocol::Idem:
    case Protocol::IdemNoPR:
    case Protocol::IdemNoAQM:
      for (std::size_t i = 0; i < n; ++i) {
        std::unique_ptr<core::AcceptanceTest> test = acceptance(i);
        replicas_.push_back(std::make_unique<core::IdemReplica>(
            *sim_, *net_, ReplicaId{static_cast<std::uint32_t>(i)}, idem, make_store(),
            std::move(test)));
      }
      break;
    case Protocol::Paxos:
    case Protocol::PaxosLBR: {
      paxos::PaxosConfig rc = config_.paxos;
      rc.n = n;
      rc.f = config_.f;
      rc.reject_threshold =
          config_.protocol == Protocol::PaxosLBR ? config_.reject_threshold : 0;
      rc.trace = trace_.get();
      for (std::size_t i = 0; i < n; ++i) {
        replicas_.push_back(std::make_unique<paxos::PaxosReplica>(
            *sim_, *net_, ReplicaId{static_cast<std::uint32_t>(i)}, rc, make_store()));
      }
      break;
    }
    case Protocol::SmartPR: {
      // The agreement is SMaRt's; the intake phase is IDEM's.
      const smart::SmartConfig rc{.n = n, .f = config_.f, .trace = trace_.get()};
      for (std::size_t i = 0; i < n; ++i) {
        std::unique_ptr<core::AcceptanceTest> test = acceptance(i);
        replicas_.push_back(std::make_unique<smart::SmartPrReplica>(
            *sim_, *net_, ReplicaId{static_cast<std::uint32_t>(i)}, rc, idem, make_store(),
            std::move(test)));
      }
      break;
    }
    case Protocol::Smart: {
      const smart::SmartConfig rc{.n = n, .f = config_.f, .trace = trace_.get()};
      for (std::size_t i = 0; i < n; ++i) {
        replicas_.push_back(std::make_unique<smart::SmartReplica>(
            *sim_, *net_, ReplicaId{static_cast<std::uint32_t>(i)}, rc, make_store()));
      }
      break;
    }
  }

  // Every protocol's client is IDEM's. Paxos clients talk to the leader
  // only; the others multicast (SMaRt replicas simply never reject).
  core::IdemClientConfig cc = config_.idem_client;
  cc.n = n;
  cc.f = config_.f;
  cc.leader_only =
      config_.protocol == Protocol::Paxos || config_.protocol == Protocol::PaxosLBR;
  cc.trace = trace_.get();
  for (std::size_t i = 0; i < config_.clients; ++i) {
    auto client = std::make_unique<core::IdemClient>(*sim_, *net_, ClientId{i}, cc);
    clients_.push_back(client.get());
    client_nodes_.push_back(std::move(client));
  }

  for (auto& replica : replicas_) replica->set_discipline(config_.discipline);

  if (config_.obs.metrics_interval > 0) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    register_metrics();
    metrics_ticker_ = std::make_unique<obs::MetricsTicker>(*sim_, *metrics_,
                                                           config_.obs.metrics_interval);
    metrics_ticker_->start();
  }
}

Cluster::~Cluster() = default;

void Cluster::register_metrics() {
  obs::MetricsRegistry& reg = *metrics_;
  reg.add_counter("net.dropped", [this] { return static_cast<double>(net_->dropped_messages()); });
  reg.add_counter("net.client_bytes",
                  [this] { return static_cast<double>(net_->client_traffic().bytes); });
  reg.add_counter("net.replica_bytes",
                  [this] { return static_cast<double>(net_->replica_traffic().bytes); });

  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const std::string p = "r" + std::to_string(i);
    sim::Node* node = replicas_[i].get();
    reg.add_gauge(p + ".queue", [node] { return static_cast<double>(node->queue_length()); });
    reg.add_counter(p + ".tx_bytes", [this, node] {
      const sim::TrafficStats* t = net_->node_traffic(node->id());
      return t != nullptr ? static_cast<double>(t->bytes) : 0.0;
    });
    reg.add_counter(p + ".tx_msgs", [this, node] {
      const sim::TrafficStats* t = net_->node_traffic(node->id());
      return t != nullptr ? static_cast<double>(t->messages) : 0.0;
    });

    if (auto* r = dynamic_cast<core::IdemReplica*>(node)) {
      r->register_metrics(reg, p + ".");
    } else if (auto* px = dynamic_cast<paxos::PaxosReplica*>(node)) {
      reg.add_gauge(p + ".inflight", [px] { return static_cast<double>(px->backlog()); });
      reg.add_counter(p + ".accepted", [px] { return static_cast<double>(px->stats().accepted); });
      reg.add_counter(p + ".rejected", [px] { return static_cast<double>(px->stats().rejected); });
      reg.add_counter(p + ".executed", [px] { return static_cast<double>(px->stats().executed); });
      reg.add_counter(p + ".view_changes",
                      [px] { return static_cast<double>(px->stats().view_changes); });
    } else if (auto* s = dynamic_cast<smart::SmartAgreement*>(node)) {
      s->register_metrics(reg, p + ".");
    }
  }
  reg.reserve_samples(kMetricsReserveRows);
}

std::unique_ptr<app::StateMachine> Cluster::make_store() {
  if (config_.store_factory) return config_.store_factory();
  auto store = std::make_unique<app::KvStore>();
  if (!preload_snapshot_.empty()) store->restore(preload_snapshot_);
  return store;
}

void Cluster::crash_replica(std::size_t index) {
  assert(index < replicas_.size());
  replicas_[index]->crash();
}

namespace {

/// Mutable context shared by every scheduled fault of one apply() call.
struct PlanState {
  int last_crashed = -1;
};

sim::NodeId fault_address(std::uint32_t endpoint) {
  return sim::fault_endpoint_is_client(endpoint)
             ? consensus::client_address(ClientId{sim::fault_endpoint_index(endpoint)})
             : consensus::replica_address(ReplicaId{sim::fault_endpoint_index(endpoint)});
}

std::vector<sim::NodeId> fault_addresses(const std::vector<std::uint32_t>& side) {
  std::vector<sim::NodeId> out;
  out.reserve(side.size());
  for (std::uint32_t e : side) out.push_back(fault_address(e));
  return out;
}

}  // namespace

void Cluster::apply(const sim::FaultPlan& plan, Time offset) {
  auto state = std::make_shared<PlanState>();

  auto resolve_target = [this, state](std::int32_t target) -> std::size_t {
    if (target == sim::Fault::kLeader) return leader_index();
    if (target == sim::Fault::kFollower) return (leader_index() + 1) % config_.n;
    if (target == sim::Fault::kLastCrashed) {
      return state->last_crashed >= 0 ? static_cast<std::size_t>(state->last_crashed) : 0;
    }
    return static_cast<std::size_t>(target);
  };

  for (const sim::Fault& fault : plan.faults) {
    sim_->schedule_at(offset + fault.at, [this, state, resolve_target, fault] {
      switch (fault.kind) {
        case sim::Fault::Kind::Crash: {
          std::size_t victim = resolve_target(fault.replica);
          if (victim >= replicas_.size() || replicas_[victim]->crashed()) return;
          replicas_[victim]->crash();
          state->last_crashed = static_cast<int>(victim);
          break;
        }
        case sim::Fault::Kind::Recover: {
          std::size_t victim = resolve_target(fault.replica);
          if (victim < replicas_.size()) replicas_[victim]->restart();
          break;
        }
        case sim::Fault::Kind::Partition:
        case sim::Fault::Kind::PartitionOneWay: {
          auto a = fault_addresses(fault.side_a);
          auto b = fault_addresses(fault.side_b);
          bool one_way = fault.kind == sim::Fault::Kind::PartitionOneWay;
          if (one_way) {
            net_->partition_one_way(a, b);
          } else {
            net_->partition(a, b);
          }
          if (fault.duration > 0) {
            sim_->schedule_after(fault.duration, [this, a, b, one_way] {
              for (sim::NodeId from : a) {
                for (sim::NodeId to : b) {
                  net_->unblock_link(from, to);
                  if (!one_way) net_->unblock_link(to, from);
                }
              }
            });
          }
          break;
        }
        case sim::Fault::Kind::Heal:
          net_->heal();
          break;
        case sim::Fault::Kind::DelaySpike: {
          if (fault.magnitude <= 0) return;
          net_->set_latency_factor(net_->latency_factor() * fault.magnitude);
          if (fault.duration > 0) {
            sim_->schedule_after(fault.duration, [this, m = fault.magnitude] {
              net_->set_latency_factor(net_->latency_factor() / m);
            });
          }
          break;
        }
        case sim::Fault::Kind::DropBurst: {
          // Track the increment actually applied so overlapping bursts (and
          // the 1.0 clamp) revert exactly.
          double current = net_->config().drop_probability;
          double applied = fault.magnitude;
          if (current + applied > 1.0) applied = 1.0 - current;
          if (applied <= 0) return;
          net_->set_drop_probability(current + applied);
          if (fault.duration > 0) {
            sim_->schedule_after(fault.duration, [this, applied] {
              double q = net_->config().drop_probability - applied;
              net_->set_drop_probability(q < 0.0 ? 0.0 : q);
            });
          }
          break;
        }
      }
    });
  }
}

std::size_t Cluster::leader_index() const {
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i]->crashed()) continue;
    if (const auto* r = dynamic_cast<const core::IdemReplica*>(replicas_[i].get())) {
      if (r->is_leader()) return i;
    } else if (const auto* p = dynamic_cast<const paxos::PaxosReplica*>(replicas_[i].get())) {
      if (p->is_leader()) return i;
    } else if (const auto* s = dynamic_cast<const smart::SmartAgreement*>(replicas_[i].get())) {
      if (s->is_leader()) return i;
    }
  }
  return 0;
}

core::IdemReplica* Cluster::idem_replica(std::size_t index) {
  return dynamic_cast<core::IdemReplica*>(replicas_[index].get());
}

paxos::PaxosReplica* Cluster::paxos_replica(std::size_t index) {
  return dynamic_cast<paxos::PaxosReplica*>(replicas_[index].get());
}

smart::SmartAgreement* Cluster::smart_replica(std::size_t index) {
  return dynamic_cast<smart::SmartAgreement*>(replicas_[index].get());
}

smart::SmartPrReplica* Cluster::smart_pr_replica(std::size_t index) {
  return dynamic_cast<smart::SmartPrReplica*>(replicas_[index].get());
}

}  // namespace idem::harness
