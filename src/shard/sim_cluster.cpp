#include "shard/sim_cluster.hpp"

#include <cassert>
#include <utility>

#include "consensus/addresses.hpp"
#include "idem/acceptance.hpp"

namespace idem::shard {

// ---------------------------------------------------------------------------
// GroupTransport
// ---------------------------------------------------------------------------

void GroupTransport::add_node(sim::NodeId id, sim::NodeKind kind, sim::Endpoint* endpoint) {
  auto proxy = std::make_unique<Proxy>();
  proxy->owner = this;
  proxy->inner = endpoint;
  net_.add_node(to_global(id), kind, proxy.get());
  proxies_[id.value] = std::move(proxy);
}

void GroupTransport::remove_node(sim::NodeId id) {
  net_.remove_node(to_global(id));
  proxies_.erase(id.value);
}

void GroupTransport::send(sim::NodeId from, sim::NodeId to, sim::PayloadPtr message) {
  net_.send(to_global(from), to_global(to), std::move(message));
}

sim::NodeId GroupTransport::to_global(sim::NodeId local) const {
  if (consensus::is_client_address(local)) {
    return sim::NodeId{consensus::kClientAddressBase + group_ * kClientStride +
                       (local.value - consensus::kClientAddressBase)};
  }
  return sim::NodeId{group_ * kReplicaStride + local.value};
}

sim::NodeId GroupTransport::to_local(sim::NodeId global) const {
  if (global.value >= consensus::kClientAddressBase) {
    return sim::NodeId{global.value - group_ * kClientStride};
  }
  return sim::NodeId{global.value - group_ * kReplicaStride};
}

// ---------------------------------------------------------------------------
// ShardedSimCluster
// ---------------------------------------------------------------------------

ShardedSimCluster::ShardedSimCluster(ShardedSimConfig config)
    : config_(std::move(config)),
      sim_(config_.seed),
      net_(std::make_unique<sim::SimNetwork>(sim_, sim::NetworkConfig{})),
      map_(ShardMap::uniform(config_.groups)) {
  assert(config_.groups > 0 && config_.routers > 0);

  groups_.resize(config_.groups);
  for (std::size_t g = 0; g < config_.groups; ++g) {
    Group& group = groups_[g];
    group.transport = std::make_unique<GroupTransport>(*net_, static_cast<GroupId>(g));
    group.gate = std::make_unique<GroupShardGate>(static_cast<GroupId>(g), map_);
    core::IdemConfig replica_config;
    replica_config.shard_gate = group.gate.get();
    group.crashed.assign(replica_config.n, false);
    for (std::size_t i = 0; i < replica_config.n; ++i) {
      group.replicas.push_back(std::make_unique<core::IdemReplica>(
          sim_, *group.transport, ReplicaId{static_cast<std::uint32_t>(i)}, replica_config,
          std::make_unique<app::KvStore>(),
          core::make_default_acceptance(replica_config, config_.routers)));
    }
  }

  const core::IdemClientConfig client_config{};
  RouterConfig router_config;
  router_config.map_source = [this] { return map_; };

  routers_.resize(config_.routers);
  for (std::size_t r = 0; r < config_.routers; ++r) {
    Router& router = routers_[r];
    std::vector<consensus::ServiceClient*> clients;
    for (std::size_t g = 0; g < config_.groups; ++g) {
      router.clients.push_back(std::make_unique<core::IdemClient>(
          sim_, *groups_[g].transport, ClientId{r}, client_config));
      clients.push_back(router.clients.back().get());
    }
    router.router = std::make_unique<ShardRouter>(map_, std::move(clients), router_config);
  }
}

ShardedSimCluster::~ShardedSimCluster() = default;

std::size_t ShardedSimCluster::leader_of(std::size_t group) const {
  const Group& g = groups_[group];
  for (std::size_t i = 0; i < g.replicas.size(); ++i) {
    if (!g.crashed[i] && g.replicas[i]->is_leader()) return i;
  }
  return g.replicas.size();
}

std::vector<consensus::ServiceClient*> ShardedSimCluster::routers() {
  std::vector<consensus::ServiceClient*> out;
  for (Router& router : routers_) out.push_back(router.router.get());
  return out;
}

void ShardedSimCluster::crash_replica(std::size_t group, std::size_t index) {
  groups_[group].crashed[index] = true;
  groups_[group].replicas[index]->crash();
}

void ShardedSimCluster::publish(ShardMap map) {
  if (map.epoch() <= map_.epoch()) return;
  map_ = std::move(map);
  for (Group& group : groups_) group.gate->install(map_);
}

bool ShardedSimCluster::drained(std::size_t group) const {
  const Group& g = groups_[group];
  std::uint64_t next_exec = 0;
  bool first = true;
  for (std::size_t i = 0; i < g.replicas.size(); ++i) {
    if (g.crashed[i]) continue;
    const core::IdemReplica& replica = *g.replicas[i];
    if (replica.active_requests() != 0) return false;
    if (replica.queue_length() != 0) return false;
    if (first) {
      next_exec = replica.next_execute().value;
      first = false;
    } else if (replica.next_execute().value != next_exec) {
      return false;
    }
  }
  return !first;
}

bool ShardedSimCluster::run_split(std::uint64_t begin, std::uint64_t end, GroupId from,
                                  GroupId to, Duration drain_timeout) {
  Group& source = groups_[from];
  source.gate->freeze();

  // Drain: frozen intake makes the group's outstanding work finite. The
  // condition must hold for a few consecutive polls — a momentarily empty
  // replica may still have agreement messages in flight on the network.
  const Time deadline = sim_.now() + drain_timeout;
  int stable = 0;
  while (sim_.now() < deadline && stable < 3) {
    sim_.run_for(kMillisecond);
    stable = drained(from) ? stable + 1 : 0;
  }
  if (stable < 3) {
    source.gate->unfreeze();
    return false;
  }

  // Transfer: carve the moving range out of the most advanced live source
  // replica (all live replicas agree on next_execute, so any would do).
  core::IdemReplica* donor = nullptr;
  for (std::size_t i = 0; i < source.replicas.size(); ++i) {
    if (!source.crashed[i]) {
      donor = source.replicas[i].get();
      break;
    }
  }
  if (donor == nullptr) {
    source.gate->unfreeze();
    return false;
  }
  auto* donor_store = dynamic_cast<app::KvStore*>(&donor->state_machine());
  assert(donor_store != nullptr);
  std::vector<std::pair<std::string, std::string>> moved;
  for (const auto& [key, value] : donor_store->entries()) {
    const std::uint64_t h = ShardMap::hash_key(key);
    if (h >= begin && (end == 0 || h < end)) moved.emplace_back(key, value);
  }

  Group& target = groups_[to];
  for (std::size_t i = 0; i < target.replicas.size(); ++i) {
    if (target.crashed[i]) continue;
    auto* store = dynamic_cast<app::KvStore*>(&target.replicas[i]->state_machine());
    assert(store != nullptr);
    for (const auto& [key, value] : moved) store->put(key, value);
  }

  // Flip: the target's gate must own the range before the source starts
  // redirecting clients at it, so publish (which installs target-first in
  // group order... install order does not matter while the source is still
  // frozen) strictly before unfreezing.
  publish(map_.with_range_moved(begin, end, to));
  source.gate->unfreeze();
  return true;
}

}  // namespace idem::shard
