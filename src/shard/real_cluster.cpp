#include "shard/real_cluster.hpp"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

namespace idem::shard {

namespace {
/// Split-handshake drain poll interval (wall clock).
constexpr std::chrono::milliseconds kDrainPoll{1};
}  // namespace

ShardedRealCluster::ShardedRealCluster(ShardedRealConfig config)
    : config_(std::move(config)), map_(ShardMap::uniform(config_.groups)) {
  gates_.reserve(config_.groups);
  clusters_.reserve(config_.groups);
  for (std::size_t g = 0; g < config_.groups; ++g) {
    gates_.push_back(std::make_unique<GroupShardGate>(static_cast<GroupId>(g), map_));

    real::RealClusterConfig cluster_config = config_.base;
    // Disjoint seed ranges per group (each cluster derives per-replica
    // seeds as seed + i).
    cluster_config.seed = config_.base.seed + g * 1000;
    cluster_config.idem.shard_gate = gates_.back().get();
    cluster_config.admin = false;  // aggregated below instead
    clusters_.push_back(std::make_unique<real::RealCluster>(std::move(cluster_config)));
  }

  if (config_.admin) {
    real::RealRuntimeConfig runtime_config;
    runtime_config.seed = config_.base.seed + 0xAD31u;
    admin_runtime_ = std::make_unique<real::RealRuntime>(runtime_config);
    std::vector<real::Admin::Member> members;
    for (std::size_t g = 0; g < config_.groups; ++g) {
      const auto group = static_cast<std::uint32_t>(g);
      for (real::Admin::Member& member : clusters_[g]->admin_members(group)) {
        members.push_back(std::move(member));
      }
      // The gate is shared by the group's replicas: one member of its own,
      // read directly (it is internally synchronized).
      obs::MetricsRegistry& registry = *gate_metrics_.emplace_back(
          std::make_unique<obs::MetricsRegistry>());
      gates_[g]->register_metrics(registry);
      members.push_back(real::Admin::Member{"gate", group, [&registry] { return registry.read(); },
                                            nullptr});
    }
    admin_ = std::make_unique<real::Admin>(admin_runtime_->loop(), config_.admin_port,
                                           std::move(members));
  }
}

ShardedRealCluster::~ShardedRealCluster() { shutdown(); }

ShardMap ShardedRealCluster::map() const {
  std::lock_guard lock(map_mu_);
  return map_;
}

void ShardedRealCluster::publish(ShardMap map) {
  {
    std::lock_guard lock(map_mu_);
    if (map.epoch() <= map_.epoch()) return;
    map_ = map;
  }
  for (auto& gate : gates_) gate->install(map);
}

std::vector<std::vector<rpc::PeerAddress>> ShardedRealCluster::group_addresses() const {
  std::vector<std::vector<rpc::PeerAddress>> addresses;
  addresses.reserve(clusters_.size());
  for (const auto& cluster : clusters_) addresses.push_back(cluster->replica_addresses());
  return addresses;
}

void ShardedRealCluster::start() {
  if (started_) return;
  started_ = true;
  for (auto& cluster : clusters_) cluster->start();
  if (admin_runtime_) admin_runtime_->start();
}

void ShardedRealCluster::shutdown() {
  // Admin first: its handlers read gate state that must stay valid, and
  // nothing protocol-side depends on it.
  if (admin_runtime_) admin_runtime_->stop();
  for (auto& cluster : clusters_) cluster->shutdown();
}

bool ShardedRealCluster::drained(std::size_t group) {
  real::RealCluster& cluster = *clusters_[group];
  std::uint64_t next_exec = 0;
  bool first = true;
  for (std::size_t i = 0; i < cluster.n(); ++i) {
    if (cluster.crashed(i)) continue;
    const real::RealCluster::Quiescence q = cluster.quiescence(i);
    if (q.active != 0 || q.queue != 0) return false;
    if (first) {
      next_exec = q.next_execute;
      first = false;
    } else if (q.next_execute != next_exec) {
      return false;
    }
  }
  return !first;
}

bool ShardedRealCluster::run_split(std::uint64_t begin, std::uint64_t end, GroupId from,
                                   GroupId to, Duration drain_timeout) {
  GroupShardGate& source_gate = *gates_[from];
  source_gate.freeze();

  // Drain: frozen intake makes the source's outstanding work finite. The
  // quiescent condition must hold for a few consecutive polls — a replica
  // momentarily between messages still has agreement traffic in flight.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(drain_timeout);
  int stable = 0;
  while (stable < 3) {
    if (std::chrono::steady_clock::now() >= deadline) {
      source_gate.unfreeze();
      return false;
    }
    std::this_thread::sleep_for(kDrainPoll);
    stable = drained(from) ? stable + 1 : 0;
  }

  // Transfer: carve the moving range out of any live source replica (all
  // live replicas agree on next_execute, so their stores match).
  real::RealCluster& source = *clusters_[from];
  std::size_t donor = source.n();
  for (std::size_t i = 0; i < source.n(); ++i) {
    if (!source.crashed(i)) {
      donor = i;
      break;
    }
  }
  if (donor == source.n()) {
    source_gate.unfreeze();
    return false;
  }
  std::vector<std::pair<std::string, std::string>> moved;
  for (auto& [key, value] : source.dump_store(donor)) {
    const std::uint64_t h = ShardMap::hash_key(key);
    if (h >= begin && (end == 0 || h < end)) moved.emplace_back(std::move(key), std::move(value));
  }

  real::RealCluster& target = *clusters_[to];
  for (std::size_t i = 0; i < target.n(); ++i) {
    if (!target.crashed(i)) target.put_entries(i, moved);
  }

  // Flip: publish the epoch+1 map to every gate strictly before lifting
  // the freeze — from the instant the source turns WrongShard redirects
  // around, the target must already own the range.
  publish(map().with_range_moved(begin, end, to));
  source_gate.unfreeze();
  return true;
}

}  // namespace idem::shard
