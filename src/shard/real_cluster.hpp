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
// Observability aggregates: every group's replica shards register on one
// obs::LiveMetrics hub with a group=<g> label, and a dedicated admin loop
// thread serves /metrics (Prometheus, group-labelled series) and /stats
// (JSON with a per-group section) for the whole deployment.
//
// Elastic reconfiguration: run_split() executes the freeze -> drain ->
// transfer -> flip handshake from the controller thread, touching replica
// state only through RealRuntime::call()-backed probes on RealCluster.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "real/cluster.hpp"
#include "real/runtime.hpp"
#include "rpc/http_admin.hpp"
#include "shard/gate.hpp"
#include "shard/shard_map.hpp"

namespace idem::shard {

struct ShardedRealConfig {
  std::size_t groups = 2;

  /// Per-group template: n, f, protocol knobs, transport hardening,
  /// preload/workload. The cluster overrides seed (disjoint per group),
  /// admin (aggregated here instead), live_hub and telemetry_labels.
  real::RealClusterConfig base;

  /// Aggregated live telemetry across all groups (implied by admin).
  bool live_metrics = false;
  /// Serve /metrics and /stats for the whole deployment from a dedicated
  /// admin loop thread; 0 binds an ephemeral port (query admin_port()).
  bool admin = false;
  std::uint16_t admin_port = 0;

  /// Split-handshake drain poll interval (wall clock).
  Duration drain_poll = kMillisecond;
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
  /// Aggregated hub (nullptr unless live_metrics/admin is on).
  obs::LiveMetrics* live_metrics() { return live_.get(); }

  /// The /stats JSON body (also exposed for tests: per-group gate
  /// counters, freeze state, map epoch, plus the windowed live section).
  std::string render_stats();

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
  std::unique_ptr<obs::LiveMetrics> live_;
  std::vector<std::unique_ptr<GroupShardGate>> gates_;
  std::vector<std::unique_ptr<real::RealCluster>> clusters_;

  mutable std::mutex map_mu_;
  ShardMap map_;

  /// Admin rides its own loop thread (no replica shares it, so a slow
  /// scrape never delays protocol work; crash_replica on any group cannot
  /// kill it either).
  std::unique_ptr<real::RealRuntime> admin_runtime_;
  std::unique_ptr<rpc::HttpAdmin> admin_;
  bool started_ = false;
};

}  // namespace idem::shard
