// Sharded multi-group real deployment.
//
// M independent real::RealCluster instances (each n replicas on their own
// loop threads, kernel TCP on loopback) run side by side in one process;
// a GroupShardGate per group — shared by that group's replicas, checked
// on their intake path — turns REQUESTs for foreign keys into WrongShard
// REJECTs carrying the map epoch and the key's home group. Groups do not
// talk to each other: the only cross-group machinery is the client-side
// router (shard/real_clients.hpp) and the split coordinator below.
//
// Observability aggregates: one real::Admin on a dedicated loop thread
// serves the whole deployment; its members are every group's replicas and
// gates, labelled group="<g>" (/stats adds a per-group section).
//
// Elastic reconfiguration: run_split() executes the freeze -> drain ->
// transfer -> flip handshake from the controller thread, touching replica
// state only through RealRuntime::call()-backed probes on RealCluster.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "real/admin.hpp"
#include "real/cluster.hpp"
#include "real/runtime.hpp"
#include "shard/gate.hpp"
#include "shard/shard_map.hpp"

namespace idem::shard {

struct ShardedRealConfig {
  std::size_t groups = 2;

  /// Per-group template: n, f, protocol knobs, transport hardening,
  /// preload/workload. The cluster overrides seed (disjoint per group) and
  /// admin (one admin serves every group, below).
  real::RealClusterConfig base;

  /// Serve /metrics, /stats and /trace for the whole deployment from a
  /// dedicated loop thread; 0 binds an ephemeral port (admin_port()).
  bool admin = false;
  std::uint16_t admin_port = 0;
};

class ShardedRealCluster {
 public:
  explicit ShardedRealCluster(ShardedRealConfig config);
  ~ShardedRealCluster();

  ShardedRealCluster(const ShardedRealCluster&) = delete;
  ShardedRealCluster& operator=(const ShardedRealCluster&) = delete;

  const ShardedRealConfig& config() const { return config_; }
  std::size_t groups() const { return clusters_.size(); }
  real::RealCluster& group(std::size_t g) { return *clusters_[g]; }
  GroupShardGate& gate(std::size_t g) { return *gates_[g]; }

  /// Current shard map (copied under the map lock — run_split() publishes
  /// from the controller thread while load threads read).
  ShardMap map() const;
  /// Installs `map` (newer epoch) into every gate and the copy served to
  /// routers. No-op for stale epochs.
  void publish(ShardMap map);

  /// Replica addresses of every group, indexed [group][replica] — the
  /// shape RealClientsConfig::groups takes.
  std::vector<std::vector<rpc::PeerAddress>> group_addresses() const;

  void start();
  void shutdown();

  /// Bound aggregated-admin port (0 when the endpoint is off).
  std::uint16_t admin_port() const { return admin_ ? admin_->port() : 0; }

  /// Elastic range migration under load, from the controller thread:
  /// freeze the source group's intake, poll (wall clock) until its
  /// in-flight agreement drains, copy the moved range's records into the
  /// target group's stores, publish the epoch+1 map, unfreeze. Returns
  /// false when the source failed to drain within `drain_timeout` (freeze
  /// lifted, map unchanged).
  bool run_split(std::uint64_t begin, std::uint64_t end, GroupId from, GroupId to,
                 Duration drain_timeout = 5 * kSecond);

 private:
  bool drained(std::size_t group);

  ShardedRealConfig config_;
  std::vector<std::unique_ptr<GroupShardGate>> gates_;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> gate_metrics_;  ///< admin on only
  std::vector<std::unique_ptr<real::RealCluster>> clusters_;

  mutable std::mutex map_mu_;
  ShardMap map_;

  /// Admin rides its own loop thread (no replica shares it, so a slow
  /// scrape never delays protocol work; crash_replica on any group cannot
  /// kill it either).
  std::unique_ptr<real::RealRuntime> admin_runtime_;
  std::unique_ptr<real::Admin> admin_;
  bool started_ = false;
};

}  // namespace idem::shard
