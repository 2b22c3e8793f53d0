#include "shard/router.hpp"

#include <cassert>
#include <utility>

namespace idem::shard {

ShardRouter::ShardRouter(ShardMap map, std::vector<consensus::ServiceClient*> group_clients,
                         RouterConfig config)
    : map_(std::move(map)), group_clients_(std::move(group_clients)), config_(std::move(config)) {
  assert(!group_clients_.empty());
}

void ShardRouter::invoke(std::vector<std::byte> command, Callback callback) {
  assert(!busy_ && "one pending operation per router");
  busy_ = true;
  ++stats_.operations;
  command_ = std::move(command);
  callback_ = std::move(callback);
  hops_ = 0;
  first_issued_.reset();
  issue(route(command_));
}

void ShardRouter::set_request_deadline(Duration deadline) {
  for (consensus::ServiceClient* client : group_clients_) client->set_request_deadline(deadline);
}

GroupId ShardRouter::route(const std::vector<std::byte>& command) const {
  const auto key = peek_command_key(command);
  // Malformed commands go wherever segment 0 points; any group's state
  // machine will answer BadRequest.
  if (!key.has_value()) return map_.entries().front().group;
  return map_.group_for_key(*key);
}

void ShardRouter::issue(GroupId group) {
  last_group_ = group;
  consensus::ServiceClient* client =
      group_clients_[group < group_clients_.size() ? group : 0];
  client->invoke(command_, [this](const consensus::Outcome& outcome) {
    if (!first_issued_.has_value()) first_issued_ = outcome.issued;

    if (outcome.wrong_shard()) {
      ++stats_.redirects;
      if (++hops_ > kMaxHops) {
        ++stats_.redirect_drops;
        finish(outcome);
        return;
      }
      // The rejecting group holds a newer map than ours: refresh the whole
      // cache when a source is wired, else adopt just this key's redirect.
      if (outcome.redirect_epoch > map_.epoch() && config_.map_source) {
        ShardMap fresh = config_.map_source();
        if (fresh.epoch() > map_.epoch()) {
          map_ = std::move(fresh);
          ++stats_.map_refreshes;
        }
      }
      GroupId next = static_cast<GroupId>(outcome.redirect_group);
      if (next == last_group_ || next >= group_clients_.size()) {
        // Self-redirects and out-of-range groups fall back to the cached
        // map; if that still names the group that just refused, the hop
        // budget ends the loop.
        next = route(command_);
      }
      issue(next);
      return;
    }

    finish(outcome);
  });
}

void ShardRouter::finish(const consensus::Outcome& outcome) {
  consensus::Outcome final = outcome;
  if (first_issued_.has_value()) final.issued = *first_issued_;  // latency spans all hops
  busy_ = false;
  Callback callback = std::move(callback_);
  callback_ = nullptr;
  command_.clear();
  callback(final);
}

void ShardRouter::install(ShardMap map) {
  if (map.epoch() <= map_.epoch()) return;
  map_ = std::move(map);
}

}  // namespace idem::shard
