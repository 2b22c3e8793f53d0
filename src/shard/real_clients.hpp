// Client side of a real deployment, for harness::LoadDriver: the logical
// clients hosted on one rpc::EventLoop owned by the calling thread.
//
// Unsharded (one group, no map) every logical client is an unmodified
// core::IdemClient. With a map, each is a ShardRouter over one IdemClient
// per group, and every group gets its own TcpTransport: the groups'
// replicas all use the pristine 0-based address space, so their remote
// tables must not share a namespace. WrongShard rejects are followed
// transparently and counted in router_stats().
//
// Several instances may run concurrently on separate threads (the CLIs
// and benchmarks do this) as long as their client-id ranges do not
// overlap; each owns its loop and transports, so they share nothing but
// the kernel.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "harness/load.hpp"
#include "idem/client.hpp"
#include "real/cluster.hpp"
#include "rpc/event_loop.hpp"
#include "rpc/tcp_transport.hpp"
#include "shard/real_cluster.hpp"
#include "shard/router.hpp"
#include "shard/shard_map.hpp"

namespace idem::shard {

struct RealClientsConfig {
  std::size_t clients = 4;
  /// First ClientId; concurrent instances use disjoint ranges.
  std::uint64_t client_id_base = 0;
  /// Seed of the loop's RNG streams (the driver's draws).
  std::uint64_t seed = 1;
  /// Group g's replica i is reachable at groups[g][i]; all groups share
  /// one client configuration, so they must have the same n.
  std::vector<std::vector<rpc::PeerAddress>> groups;
  /// n comes from the group size; f = 0 derives (n - 1) / 2
  /// (IdemClientConfig::for_replicas).
  core::IdemClientConfig client{.f = 0};
  /// Route every operation through a ShardRouter with this initial map
  /// (group ids < groups.size()); unset = one unsharded group.
  std::optional<ShardMap> map;
  /// The optional map_source refresh, invoked on the loop's thread (e.g.
  /// ShardedRealCluster::map, which copies under its lock).
  RouterConfig router;
  /// Clock epoch: pass the cluster's, so client and replica timestamps
  /// are comparable.
  rpc::EventLoop::Epoch epoch = std::chrono::steady_clock::now();
};

/// `clients` unsharded IdemClients wired at `cluster`'s replicas, on its
/// clock epoch.
RealClientsConfig clients_of(const real::RealCluster& cluster, std::size_t clients,
                             std::uint64_t seed);
/// `clients` routers over every group of `cluster`, starting from its
/// current map and refreshing from it on redirects; `cluster` must outlive
/// the clients.
RealClientsConfig clients_of(ShardedRealCluster& cluster, std::size_t clients,
                             std::uint64_t seed);

class RealClients {
 public:
  explicit RealClients(const RealClientsConfig& config);
  ~RealClients();

  RealClients(const RealClients&) = delete;
  RealClients& operator=(const RealClients&) = delete;

  rpc::EventLoop& loop() { return loop_; }
  /// The logical clients: routers when sharded, else the IdemClients.
  const std::vector<consensus::ServiceClient*>& clients() const { return clients_; }
  /// Redirect counters summed across the routers (zero when unsharded).
  RouterStats router_stats() const;

  /// Runs `config` on these clients for warmup + measure of wall-clock
  /// time on the calling thread, then stops and returns the metrics.
  harness::RunMetrics drive(const harness::LoadConfig& config);

 private:
  rpc::EventLoop loop_;
  std::vector<std::unique_ptr<rpc::TcpTransport>> transports_;  ///< one per group
  std::vector<std::unique_ptr<core::IdemClient>> group_clients_;
  std::vector<std::unique_ptr<ShardRouter>> routers_;
  std::vector<consensus::ServiceClient*> clients_;
};

}  // namespace idem::shard
