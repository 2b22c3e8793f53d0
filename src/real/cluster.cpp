#include "real/cluster.hpp"

#include <string>

#include "app/kv_store.hpp"
#include "consensus/addresses.hpp"
#include "idem/acceptance.hpp"

namespace idem::real {

RealCluster::RealCluster(RealClusterConfig config)
    : config_(std::move(config)), epoch_(std::chrono::steady_clock::now()) {
  // The load phase's image, built once and restored by every replica.
  std::vector<std::byte> preload;
  if (config_.preload) preload = app::YcsbWorkload::load_image(config_.workload);
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
    auto store = std::make_unique<app::KvStore>();
    if (!preload.empty()) store->restore(preload);
    member.replica = std::make_unique<core::IdemReplica>(
        member.runtime->loop(), member.runtime->transport(),
        ReplicaId{static_cast<std::uint32_t>(i)}, replica_config, std::move(store),
        core::make_default_acceptance(replica_config, config_.expected_clients));
    member.port = member.runtime->transport().port_of(
        consensus::replica_address(ReplicaId{static_cast<std::uint32_t>(i)}));
    member.metrics = std::make_unique<obs::MetricsRegistry>();
    member.replica->register_metrics(*member.metrics);
    member.runtime->transport().register_metrics(*member.metrics);
    member.runtime->loop().register_metrics(*member.metrics);
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
    RealRuntimeConfig runtime_config;
    runtime_config.seed = config_.seed + 0xAD31u;
    runtime_config.epoch = epoch_;
    admin_runtime_ = std::make_unique<RealRuntime>(runtime_config);
    admin_ = std::make_unique<Admin>(admin_runtime_->loop(), config_.admin_port, admin_members(),
                                     obs::ChromeTraceMeta{"RealCluster",
                                                          rpc::realtime_anchor_ns(epoch_)});
  }
}

std::vector<Admin::Member> RealCluster::admin_members(std::optional<std::uint32_t> group) {
  std::vector<Admin::Member> out;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    Member& member = members_[i];
    Admin::Member entry;
    entry.name = "r" + std::to_string(i);
    entry.group = group;
    entry.read = [this, &member] {
      std::lock_guard lock(crash_mu_);
      if (member.crashed) return member.final_metrics;
      return member.runtime->call([&member] { return member.metrics->read(); });
    };
    if (member.trace) {
      entry.trace = [this, &member] {
        std::lock_guard lock(crash_mu_);
        return trace_of(member);
      };
    }
    out.push_back(std::move(entry));
  }
  return out;
}

RealCluster::~RealCluster() { shutdown(); }

void RealCluster::start() {
  if (started_) return;
  started_ = true;
  for (Member& member : members_) {
    if (!member.crashed) member.runtime->start();
  }
  if (admin_runtime_) admin_runtime_->start();
}

void RealCluster::shutdown() {
  // Admin first: its reads call into the members' loops.
  if (admin_runtime_) admin_runtime_->stop();
  for (Member& member : members_) {
    if (member.runtime) member.runtime->stop();
  }
}

void RealCluster::crash_replica(std::size_t index) {
  Member& member = members_[index];
  if (member.crashed) return;
  std::lock_guard lock(crash_mu_);
  member.runtime->stop();
  // Loop thread is gone; reading and tearing down on this thread is safe.
  member.final_stats = member.replica->stats();
  member.final_transport = member.runtime->transport().stats();
  member.final_loop = member.runtime->loop().stats();
  // Totals outlive the member, so cluster totals never go backwards; its
  // point-in-time values (leader, view, inflight, connections) do not.
  member.final_metrics = member.metrics->read();
  std::erase_if(member.final_metrics.scalars, [](const obs::MetricsReading::Scalar& s) {
    return s.kind == obs::SeriesKind::Gauge;
  });
  member.final_metrics.scalars.push_back({"crashed", obs::SeriesKind::Gauge, 1});
  member.metrics.reset();
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

rpc::LoopStats RealCluster::loop_stats(std::size_t index) {
  Member& member = members_[index];
  if (member.crashed) return member.final_loop;
  return member.runtime->call([&member] { return member.runtime->loop().stats(); });
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
    return store == nullptr ? std::vector<std::pair<std::string, std::string>>{}
                            : store->entries();
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

std::vector<obs::TraceEvent> RealCluster::trace_of(Member& member) {
  if (member.crashed) return member.trace->snapshot();
  return member.runtime->call([&member] { return member.trace->snapshot(); });
}

std::vector<std::vector<obs::TraceEvent>> RealCluster::trace_snapshots() {
  std::vector<std::vector<obs::TraceEvent>> parts;
  for (Member& member : members_) {
    if (member.trace) parts.push_back(trace_of(member));
  }
  return parts;
}

}  // namespace idem::real
