#include "real/cluster.hpp"

#include <string>

#include "app/kv_store.hpp"
#include "consensus/addresses.hpp"
#include "idem/acceptance.hpp"
#include "real/replica.hpp"

namespace idem::real {

RealCluster::RealCluster(RealClusterConfig config)
    : config_(std::move(config)), epoch_(std::chrono::steady_clock::now()) {
  if (config_.admin || config_.live_hub != nullptr) config_.live_metrics = true;
  if (config_.live_hub != nullptr) {
    hub_ = config_.live_hub;
  } else if (config_.live_metrics) {
    live_ = std::make_unique<obs::LiveMetrics>();
    hub_ = live_.get();
  }

  members_.resize(config_.n);
  for (std::size_t i = 0; i < config_.n; ++i) {
    Member& member = members_[i];
    RealRuntimeConfig runtime_config;
    runtime_config.seed = config_.seed + i;
    runtime_config.epoch = epoch_;
    runtime_config.transport = config_.transport;
    runtime_config.transport.fixed_port = 0;  // loopback mesh: always ephemeral
    runtime_config.transport.listen_host = "127.0.0.1";
    member.runtime = std::make_unique<RealRuntime>(runtime_config);

    core::IdemConfig replica_config = config_.idem;
    replica_config.n = config_.n;
    replica_config.f = config_.f;
    replica_config.reject_threshold = config_.reject_threshold;
    if (config_.trace) {
      member.trace = std::make_unique<obs::TraceRecorder>(config_.trace_capacity);
      replica_config.trace = member.trace.get();
    }
    if (hub_ != nullptr) {
      // Identical series names across replicas aggregate cluster-wide.
      replica_config.telemetry =
          core::LiveTelemetry::attach(hub_->make_shard(), config_.telemetry_labels);
    }
    if (config_.execution_thread) {
      member.executor = std::make_unique<ExecutionThread>(member.runtime->loop());
      replica_config.executor = member.executor.get();
    }
    member.replica = make_replica(
        *member.runtime, member.runtime->transport(), ReplicaId{static_cast<std::uint32_t>(i)},
        replica_config, make_store(),
        core::make_default_acceptance(replica_config, config_.expected_clients));
    member.port = member.runtime->transport().port_of(
        consensus::replica_address(ReplicaId{static_cast<std::uint32_t>(i)}));
  }

  // Full mesh: every replica knows every peer's loopback port.
  for (std::size_t i = 0; i < config_.n; ++i) {
    for (std::size_t j = 0; j < config_.n; ++j) {
      if (i == j) continue;
      members_[i].runtime->transport().set_remote(
          consensus::replica_address(ReplicaId{static_cast<std::uint32_t>(j)}),
          members_[j].port);
    }
  }

  if (config_.admin) {
    // Rides member 0's loop; the shards behind the hub are mutex-backed,
    // so a scrape observes every replica without cross-thread hazards.
    admin_ = std::make_unique<rpc::HttpAdmin>(members_[0].runtime->loop(), config_.admin_port);
    obs::LiveMetrics* hub = hub_;
    admin_->route("/metrics", "text/plain; version=0.0.4",
                  [hub] { return obs::LiveMetrics::render_prometheus(hub->snapshot()); });
    admin_->route("/stats", "application/json",
                  [hub] { return obs::LiveMetrics::render_json(hub->snapshot()); });
  }
}

RealCluster::~RealCluster() { shutdown(); }

std::unique_ptr<app::StateMachine> RealCluster::make_store() const {
  // Zero modelled costs: execution takes whatever it actually takes.
  auto store = std::make_unique<app::KvStore>(app::KvStore::Costs{0, 0.0, 0});
  if (config_.preload) {
    // Same config + const load phase => byte-identical content everywhere.
    Rng rng(config_.seed, /*stream=*/0x10ADull);
    app::YcsbWorkload workload(config_.workload, rng);
    for (const app::KvCommand& command : workload.load_phase()) {
      store->execute(command.encode());
    }
  }
  return store;
}

void RealCluster::start() {
  if (started_) return;
  started_ = true;
  for (Member& member : members_) {
    if (!member.crashed) member.runtime->start();
  }
}

void RealCluster::shutdown() {
  for (Member& member : members_) {
    if (member.runtime) member.runtime->stop();
  }
}

void RealCluster::crash_replica(std::size_t index) {
  Member& member = members_[index];
  if (member.crashed) return;
  member.runtime->stop();
  // The admin endpoint's sockets live on member 0's loop; tear it down
  // before that loop object dies.
  if (index == 0) admin_.reset();
  // Loop thread is gone; reading and tearing down on this thread is safe.
  // The executor joins before the replica dies — a completion it posted to
  // the stopped loop is never run.
  if (member.executor) member.executor->stop();
  member.final_stats = member.replica->stats();
  member.final_transport = member.runtime->transport().stats();
  member.executor.reset();
  member.replica.reset();   // unregisters from the transport
  member.runtime.reset();   // closes all sockets: peers see a crash
  member.port = 0;
  member.crashed = true;
}

std::vector<rpc::PeerAddress> RealCluster::replica_addresses() const {
  std::vector<rpc::PeerAddress> addresses;
  addresses.reserve(members_.size());
  for (const Member& member : members_) {
    addresses.push_back(rpc::PeerAddress{"127.0.0.1", member.port});
  }
  return addresses;
}

core::IdemClientConfig RealCluster::client_config() const {
  core::IdemClientConfig client;
  client.n = config_.n;
  client.f = config_.f;
  return client;
}

core::ReplicaStats RealCluster::replica_stats(std::size_t index) {
  Member& member = members_[index];
  if (member.crashed) return member.final_stats;
  return member.runtime->call([&member] { return member.replica->stats(); });
}

rpc::TransportStats RealCluster::transport_stats(std::size_t index) {
  Member& member = members_[index];
  if (member.crashed) return member.final_transport;
  return member.runtime->call([&member] { return member.runtime->transport().stats(); });
}

rpc::TransportMemory RealCluster::transport_memory(std::size_t index) {
  Member& member = members_[index];
  if (member.crashed) return {};
  return member.runtime->call([&member] { return member.runtime->transport().memory(); });
}

RealCluster::Quiescence RealCluster::quiescence(std::size_t index) {
  Member& member = members_[index];
  if (member.crashed) return {};
  return member.runtime->call([&member] {
    Quiescence q;
    q.active = member.replica->active_requests();
    q.queue = member.replica->queue_length();
    q.next_execute = member.replica->next_execute().value;
    return q;
  });
}

std::vector<std::pair<std::string, std::string>> RealCluster::dump_store(std::size_t index) {
  Member& member = members_[index];
  if (member.crashed) return {};
  return member.runtime->call([&member] {
    auto* store = dynamic_cast<app::KvStore*>(&member.replica->state_machine());
    std::vector<std::pair<std::string, std::string>> entries;
    if (store == nullptr) return entries;
    entries.reserve(store->entries().size());
    for (const auto& [key, value] : store->entries()) entries.emplace_back(key, value);
    return entries;
  });
}

void RealCluster::put_entries(std::size_t index,
                              const std::vector<std::pair<std::string, std::string>>& entries) {
  Member& member = members_[index];
  if (member.crashed) return;
  member.runtime->call([&member, &entries] {
    auto* store = dynamic_cast<app::KvStore*>(&member.replica->state_machine());
    if (store == nullptr) return;
    for (const auto& [key, value] : entries) store->put(key, value);
  });
}

std::size_t RealCluster::leader_index() {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    Member& member = members_[i];
    if (member.crashed) continue;
    bool leads = member.runtime->call([&member] { return member.replica->is_leader(); });
    if (leads) return i;
  }
  return members_.size();
}

std::vector<std::vector<obs::TraceEvent>> RealCluster::trace_snapshots() {
  std::vector<std::vector<obs::TraceEvent>> parts;
  for (Member& member : members_) {
    if (!member.trace) continue;
    if (member.crashed || !member.runtime) {
      parts.push_back(member.trace->snapshot());
    } else {
      parts.push_back(
          member.runtime->call([&member] { return member.trace->snapshot(); }));
    }
  }
  return parts;
}

std::vector<obs::TraceEvent> RealCluster::merged_trace() {
  return obs::merge_trace_snapshots(trace_snapshots());
}

}  // namespace idem::real
