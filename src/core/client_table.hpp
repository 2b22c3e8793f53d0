// Per-client session state shared by every protocol in this tree.
//
// All four replicas need the same two maps: the highest executed operation
// number per client (duplicate suppression — a slot may commit a request
// that already executed under an earlier slot) and the last reply per
// client (client retransmissions are answered from this cache and must
// never trigger re-execution). This class is the single implementation of
// that pair; the protocols differ only in *when* they consult it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/ids.hpp"
#include "consensus/messages.hpp"

namespace idem::core {

class ClientTable {
 public:
  /// True when `id` — or a newer operation of the same client — has
  /// already executed here.
  bool executed(RequestId id) const {
    auto it = last_exec_.find(id.cid.value);
    return it != last_exec_.end() && id.onr.value <= it->second;
  }

  /// Highest executed operation number of `cid`, if any.
  std::optional<OpNum> last_executed(ClientId cid) const {
    auto it = last_exec_.find(cid.value);
    if (it == last_exec_.end()) return std::nullopt;
    return OpNum{it->second};
  }

  /// The cached reply for exactly `id`, or null. An older reply of the
  /// same client must not answer a newer retransmission, so the id is
  /// matched in full.
  std::shared_ptr<const msg::Reply> cached_reply(RequestId id) const {
    auto it = last_reply_.find(id.cid.value);
    if (it != last_reply_.end() && it->second->id == id) return it->second;
    return nullptr;
  }

  /// Records an execution: advances the client's session and caches the
  /// reply for retransmissions.
  void record(RequestId id, std::shared_ptr<const msg::Reply> reply) {
    last_exec_[id.cid.value] = id.onr.value;
    last_reply_[id.cid.value] = std::move(reply);
  }

  /// State-transfer restore: adopt the newer of our and the shipped
  /// per-client progress.
  void merge_executed(ClientId cid, OpNum onr) {
    auto& entry = last_exec_[cid.value];
    if (onr.value > entry) entry = onr.value;
  }

  /// Cached replies are stale after a snapshot restore; clients retransmit
  /// if they still need one.
  void clear_replies() { last_reply_.clear(); }

  /// The raw session map (cid -> onr), e.g. for a state transfer.
  const std::unordered_map<std::uint64_t, std::uint64_t>& sessions() const {
    return last_exec_;
  }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> last_exec_;  // cid -> onr
  std::unordered_map<std::uint64_t, std::shared_ptr<const msg::Reply>> last_reply_;
};

}  // namespace idem::core
