// Sharded multi-group simulation harness.
//
// M independent IDEM groups share one Simulator and one SimNetwork; a
// GroupTransport per group translates between the group's pristine
// 0-based address space (replica i at replica_address(i), client c at
// client_address(c) — what all protocol code assumes) and disjoint global
// ranges on the shared network. The protocol objects are byte-identical
// to the single-group harness; nothing in src/idem knows it is sharded.
//
// Client side: each router owns one IdemClient per group (same ClientId
// everywhere — client tables are per-group) and routes by key hash.
// harness::LoadDriver drives the routers on simulator().
//
// Elastic reconfiguration: run_split() executes the freeze -> drain ->
// transfer -> flip handshake against a live, loaded cluster, advancing
// simulated time while it polls for quiescence.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "app/kv_store.hpp"
#include "idem/client.hpp"
#include "idem/replica.hpp"
#include "shard/gate.hpp"
#include "shard/router.hpp"
#include "shard/shard_map.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace idem::shard {

/// Global-address layout on the shared network: group g's replica i lives
/// at g * kReplicaStride + i, its view of client c at
/// kClientAddressBase + g * kClientStride + c.
constexpr std::uint32_t kReplicaStride = 1024;
constexpr std::uint32_t kClientStride = 1'000'000;

/// Per-group address translator; implements sim::Transport so protocol
/// nodes register through it unchanged.
class GroupTransport final : public sim::Transport {
 public:
  GroupTransport(sim::Transport& net, GroupId group) : net_(net), group_(group) {}

  void add_node(sim::NodeId id, sim::NodeKind kind, sim::Endpoint* endpoint) override;
  void remove_node(sim::NodeId id) override;
  void send(sim::NodeId from, sim::NodeId to, sim::PayloadPtr message) override;

  sim::NodeId to_global(sim::NodeId local) const;
  sim::NodeId to_local(sim::NodeId global) const;

 private:
  struct Proxy final : sim::Endpoint {
    GroupTransport* owner = nullptr;
    sim::Endpoint* inner = nullptr;
    void deliver(sim::NodeId from, sim::PayloadPtr message) override {
      inner->deliver(owner->to_local(from), std::move(message));
    }
  };

  sim::Transport& net_;
  GroupId group_;
  std::unordered_map<std::uint32_t, std::unique_ptr<Proxy>> proxies_;  ///< by local id
};

/// Every group runs IDEM with the default IdemConfig (n = 3, r = 50) on
/// empty stores, its acceptance test assuming one client per router; the
/// routers use the default IdemClientConfig and the network its defaults.
struct ShardedSimConfig {
  std::size_t groups = 2;
  std::size_t routers = 8;
  std::uint64_t seed = 1;
};

class ShardedSimCluster {
 public:
  explicit ShardedSimCluster(ShardedSimConfig config);
  ~ShardedSimCluster();

  ShardedSimCluster(const ShardedSimCluster&) = delete;
  ShardedSimCluster& operator=(const ShardedSimCluster&) = delete;

  sim::Simulator& simulator() { return sim_; }
  sim::SimNetwork& network() { return *net_; }
  const ShardedSimConfig& config() const { return config_; }

  std::size_t groups() const { return groups_.size(); }
  /// Replicas per group.
  std::size_t n() const { return groups_.front().replicas.size(); }
  const ShardMap& map() const { return map_; }
  GroupShardGate& gate(std::size_t group) { return *groups_[group].gate; }
  core::IdemReplica& replica(std::size_t group, std::size_t index) {
    return *groups_[group].replicas[index];
  }
  ShardRouter& router(std::size_t index) { return *routers_[index].router; }
  /// Every router, in index order (router r has ClientId r).
  std::vector<consensus::ServiceClient*> routers();

  /// Current leader index of `group` (first live replica that believes
  /// itself leader), or n when none does.
  std::size_t leader_of(std::size_t group) const;

  /// Crashes replica `index` of `group` (per-group fault injection).
  void crash_replica(std::size_t group, std::size_t index);

  /// Publishes `map` to every gate and the router map source when its
  /// epoch is newer than the current map's; a stale map is ignored, as the
  /// gates ignore it. Routers pick it up on their next redirect.
  void publish(ShardMap map);

  /// Elastic range migration under load: freeze the source group's
  /// intake, poll until its in-flight agreement drains (advancing the
  /// simulation), copy the moved range's records into the target group's
  /// stores, publish the epoch+1 map, unfreeze. Returns false when the
  /// source failed to drain within `drain_timeout` (the freeze is lifted
  /// and the map unchanged).
  bool run_split(std::uint64_t begin, std::uint64_t end, GroupId from, GroupId to,
                 Duration drain_timeout = 2 * kSecond);

 private:
  struct Group {
    std::unique_ptr<GroupTransport> transport;
    std::unique_ptr<GroupShardGate> gate;
    std::vector<std::unique_ptr<core::IdemReplica>> replicas;
    std::vector<bool> crashed;
  };

  struct Router {
    std::vector<std::unique_ptr<core::IdemClient>> clients;  ///< one per group
    std::unique_ptr<ShardRouter> router;
  };

  bool drained(std::size_t group) const;

  ShardedSimConfig config_;
  sim::Simulator sim_;
  std::unique_ptr<sim::SimNetwork> net_;
  ShardMap map_;
  std::vector<Group> groups_;
  std::vector<Router> routers_;
};

}  // namespace idem::shard
