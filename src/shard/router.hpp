// Client-side shard router.
//
// A ShardRouter is a consensus::ServiceClient facade over one protocol
// client per replication group: each operation's key is hashed against the
// cached ShardMap and the command goes to the owning group's client,
// unchanged. The load driver therefore drives a router exactly as it
// drives a bare client, in sim and real mode alike.
//
// Redirect protocol: a WrongShard outcome means the cached map is stale.
// The router follows the redirect — optionally refreshing the whole map
// through RouterConfig::map_source when the rejecting replica's epoch is
// newer — and re-issues the same command at the named home group, up to
// kMaxHops times per operation. Inconsistent maps (two groups pointing at
// each other) therefore cannot loop: the op fails with Kind::Rejected
// after the hop budget and stats().redirect_drops counts it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "consensus/service_client.hpp"
#include "shard/shard_map.hpp"

namespace idem::shard {

struct RouterConfig {
  /// Optional map refresh: called when a redirect names an epoch newer
  /// than the cached map; returning an empty map (epoch 0 sentinel is not
  /// possible — epochs start at 1) or an older epoch leaves the cache
  /// untouched and the router falls back to redirect-following.
  std::function<ShardMap()> map_source;
};

struct RouterStats {
  std::uint64_t operations = 0;      ///< invoke() calls
  std::uint64_t redirects = 0;       ///< WrongShard outcomes followed
  std::uint64_t map_refreshes = 0;   ///< cached map replaced by a newer epoch
  std::uint64_t redirect_drops = 0;  ///< ops failed at the hop budget
};

class ShardRouter final : public consensus::ServiceClient {
 public:
  /// Redirect hops allowed per operation before it fails as Rejected.
  static constexpr std::size_t kMaxHops = 4;

  /// `group_clients[g]` is the protocol client wired at group g's
  /// replicas; all share one ClientId (groups have independent client
  /// tables, so the id spaces cannot collide). Borrowed pointers.
  ShardRouter(ShardMap map, std::vector<consensus::ServiceClient*> group_clients,
              RouterConfig config = {});

  void invoke(std::vector<std::byte> command, Callback callback) override;
  /// Forwards the budget to every group client: any of them may carry
  /// the next operation, or one of its redirect hops.
  void set_request_deadline(Duration deadline) override;
  ClientId client_id() const override { return group_clients_[0]->client_id(); }
  bool busy() const override { return busy_; }

  /// Adopts `map` when its epoch is newer than the cached one.
  void install(ShardMap map);
  const ShardMap& map() const { return map_; }
  const RouterStats& stats() const { return stats_; }

 private:
  GroupId route(const std::vector<std::byte>& command) const;
  void issue(GroupId group);
  void finish(const consensus::Outcome& outcome);

  ShardMap map_;
  std::vector<consensus::ServiceClient*> group_clients_;
  RouterConfig config_;
  RouterStats stats_;

  bool busy_ = false;
  std::vector<std::byte> command_;  ///< in-flight command (kept for re-issue)
  Callback callback_;
  std::size_t hops_ = 0;
  GroupId last_group_ = 0;
  /// Issue time of hop 0 (outcomes report the latency across all hops);
  /// unset until hop 0 concludes, since time 0 is a valid issue time.
  std::optional<Time> first_issued_;
};

}  // namespace idem::shard
