#include "shard/gate.hpp"

namespace idem::shard {

core::ShardVerdict GroupShardGate::admit(std::span<const std::byte> command) const {
  std::lock_guard lock(mu_);
  core::ShardVerdict verdict;
  verdict.map_epoch = map_.epoch();
  if (frozen_) {
    ++stats_.frozen;
    verdict.kind = core::ShardVerdict::Kind::Frozen;
    return verdict;
  }
  const auto key = peek_command_key(command);
  if (!key.has_value()) {
    // Malformed command: admit it and let the state machine reply
    // BadRequest — the gate must never eat an error the client expects.
    ++stats_.admitted;
    return verdict;
  }
  const GroupId home = map_.group_for_key(*key);
  if (home == group_) {
    ++stats_.admitted;
    return verdict;
  }
  ++stats_.redirected;
  verdict.kind = core::ShardVerdict::Kind::WrongShard;
  verdict.home_group = home;
  return verdict;
}

void GroupShardGate::install(ShardMap map) {
  std::lock_guard lock(mu_);
  if (map.epoch() <= map_.epoch()) return;
  map_ = std::move(map);
}

bool GroupShardGate::frozen() const {
  std::lock_guard lock(mu_);
  return frozen_;
}

std::uint64_t GroupShardGate::epoch() const {
  std::lock_guard lock(mu_);
  return map_.epoch();
}

ShardMap GroupShardGate::map() const {
  std::lock_guard lock(mu_);
  return map_;
}

GroupShardGate::Stats GroupShardGate::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void GroupShardGate::register_metrics(obs::MetricsRegistry& registry) const {
  registry.add_gauge("shard.map_epoch", [this] { return static_cast<double>(epoch()); });
  registry.add_gauge("shard.frozen", [this] { return frozen() ? 1.0 : 0.0; });
  registry.add_counter("shard.admitted", [this] { return static_cast<double>(stats().admitted); });
  registry.add_counter("shard.redirected",
                       [this] { return static_cast<double>(stats().redirected); });
  registry.add_counter("shard.frozen_rejects",
                       [this] { return static_cast<double>(stats().frozen); });
}

void GroupShardGate::set_frozen(bool on) {
  std::lock_guard lock(mu_);
  frozen_ = on;
}

}  // namespace idem::shard
