// Per-group shard admission gate (the core::ShardGate implementation).
//
// Every replica of group G borrows one GroupShardGate: client REQUESTs
// whose key hashes outside G's ranges are answered with a WrongShard
// REJECT carrying the gate's map epoch and the key's home group. The gate
// is internally synchronized — in real mode the split coordinator swaps
// maps and toggles the freeze flag from the controller thread while the
// replica loops keep calling admit().
//
// freeze() is the first phase of the split handshake: a frozen gate turns
// every client REQUEST away with a retryable ViewChangeInProgress-class
// verdict (no redirect — the map has not changed yet), which stops new
// intake while in-flight agreement drains.
#pragma once

#include <cstdint>
#include <mutex>

#include "core/sharding.hpp"
#include "obs/metrics_registry.hpp"
#include "shard/shard_map.hpp"

namespace idem::shard {

class GroupShardGate final : public core::ShardGate {
 public:
  struct Stats {
    std::uint64_t admitted = 0;    ///< key routed here, passed to the acceptance test
    std::uint64_t redirected = 0;  ///< WrongShard verdicts issued
    std::uint64_t frozen = 0;      ///< REQUESTs turned away while frozen
  };

  GroupShardGate(GroupId group, ShardMap map) : group_(group), map_(std::move(map)) {}

  core::ShardVerdict admit(std::span<const std::byte> command) const override;

  /// Installs a newer map; older epochs are ignored (late coordinator
  /// messages must not roll the gate back).
  void install(ShardMap map);
  void freeze() { set_frozen(true); }
  void unfreeze() { set_frozen(false); }
  bool frozen() const;

  GroupId group() const { return group_; }
  std::uint64_t epoch() const;
  ShardMap map() const;
  Stats stats() const;

  /// Names this gate's series on `registry` (the "shard." family). The
  /// gate is internally synchronized, so any thread may read them.
  void register_metrics(obs::MetricsRegistry& registry) const;

 private:
  void set_frozen(bool on);

  const GroupId group_;
  mutable std::mutex mu_;
  ShardMap map_;
  bool frozen_ = false;
  mutable Stats stats_;
};

}  // namespace idem::shard
