#include "shard/real_clients.hpp"

#include "consensus/addresses.hpp"

namespace idem::shard {

RealClientsConfig clients_of(const real::RealCluster& cluster, std::size_t clients,
                             std::uint64_t seed) {
  RealClientsConfig config;
  config.clients = clients;
  config.seed = seed;
  config.groups = {cluster.replica_addresses()};
  config.client = cluster.client_config();
  config.epoch = cluster.epoch();
  return config;
}

RealClientsConfig clients_of(ShardedRealCluster& cluster, std::size_t clients,
                             std::uint64_t seed) {
  RealClientsConfig config;
  config.clients = clients;
  config.seed = seed;
  config.groups = cluster.group_addresses();
  config.map = cluster.map();
  config.router.map_source = [&cluster] { return cluster.map(); };
  return config;
}

RealClients::RealClients(const RealClientsConfig& config) : loop_(config.seed, config.epoch) {
  for (const std::vector<rpc::PeerAddress>& replicas : config.groups) {
    auto transport = std::make_unique<rpc::TcpTransport>(loop_);
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      transport->set_remote(consensus::replica_address(ReplicaId{static_cast<std::uint32_t>(i)}),
                            replicas[i]);
    }
    transports_.push_back(std::move(transport));
  }

  const core::IdemClientConfig client_config =
      config.groups.empty() ? config.client : config.client.for_replicas(config.groups[0].size());

  for (std::size_t c = 0; c < config.clients; ++c) {
    const ClientId cid{config.client_id_base + c};
    std::vector<consensus::ServiceClient*> per_group;
    for (auto& transport : transports_) {
      group_clients_.push_back(
          std::make_unique<core::IdemClient>(loop_, *transport, cid, client_config));
      per_group.push_back(group_clients_.back().get());
    }
    if (config.map.has_value()) {
      routers_.push_back(std::make_unique<ShardRouter>(*config.map, std::move(per_group),
                                                       config.router));
      clients_.push_back(routers_.back().get());
    } else {
      clients_.push_back(per_group.front());
    }
  }
}

RealClients::~RealClients() = default;

RouterStats RealClients::router_stats() const {
  RouterStats sum;
  for (const auto& router : routers_) {
    const RouterStats& r = router->stats();
    sum.operations += r.operations;
    sum.redirects += r.redirects;
    sum.map_refreshes += r.map_refreshes;
    sum.redirect_drops += r.redirect_drops;
  }
  return sum;
}

harness::RunMetrics RealClients::drive(const harness::LoadConfig& config) {
  harness::LoadDriver driver(loop_, clients_, config);
  driver.start();
  loop_.run_for(config.warmup + config.measure);
  driver.stop();
  return std::move(driver.metrics());
}

}  // namespace idem::shard
