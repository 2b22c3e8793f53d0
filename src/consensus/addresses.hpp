// Node-id conventions shared by all protocol implementations.
//
// Replica i lives at transport address i; client c lives at a fixed offset
// so the two id spaces can never collide.
#pragma once

#include "common/ids.hpp"
#include "sim/network.hpp"

namespace idem::consensus {

constexpr std::uint32_t kClientAddressBase = 1'000'000;

inline sim::NodeId replica_address(ReplicaId r) { return sim::NodeId{r.value}; }

inline sim::NodeId client_address(ClientId c) {
  return sim::NodeId{kClientAddressBase + static_cast<std::uint32_t>(c.value)};
}

inline bool is_client_address(sim::NodeId id) { return id.value >= kClientAddressBase; }

inline ReplicaId replica_of_address(sim::NodeId id) { return ReplicaId{id.value}; }

/// Leader of view v in all round-robin protocols here: replica (v mod n).
inline ReplicaId leader_of(ViewId v, std::size_t n) {
  return ReplicaId{static_cast<std::uint32_t>(v.value % n)};
}

}  // namespace idem::consensus
