#include "sim/network.hpp"

#include "common/logging.hpp"

namespace idem::sim {

SimNetwork::SimNetwork(Simulator& sim, NetworkConfig config)
    : sim_(sim),
      config_(config),
      jitter_rng_(sim.rng("net.jitter")),
      drop_rng_(sim.rng("net.drop")) {}

void SimNetwork::add_node(NodeId id, NodeKind kind, Endpoint* endpoint) {
  nodes_[id.value] = NodeEntry{kind, endpoint, {}};
}

void SimNetwork::remove_node(NodeId id) { nodes_.erase(id.value); }

Duration SimNetwork::sample_latency(std::size_t total_bytes) {
  Duration latency = config_.base_latency;
  if (config_.jitter_mean > 0) {
    latency += static_cast<Duration>(
        jitter_rng_.exponential(static_cast<double>(config_.jitter_mean)));
  }
  if (latency_factor_ != 1.0) {
    latency = static_cast<Duration>(static_cast<double>(latency) * latency_factor_);
  }
  latency += static_cast<Duration>(config_.ns_per_byte * static_cast<double>(total_bytes));
  return latency;
}

void SimNetwork::send(NodeId from, NodeId to, PayloadPtr message) {
  auto from_it = nodes_.find(from.value);
  auto to_it = nodes_.find(to.value);
  std::size_t total_bytes = message->wire_size() + config_.header_bytes;

  // Traffic is counted at the sender: a real NIC transmits the bytes
  // whether or not the peer is alive.
  bool crosses_client = (from_it != nodes_.end() && from_it->second.kind == NodeKind::Client) ||
                        (to_it != nodes_.end() && to_it->second.kind == NodeKind::Client);
  if (crosses_client) {
    client_traffic_.add(total_bytes);
  } else {
    replica_traffic_.add(total_bytes);
  }
  if (from_it != nodes_.end()) from_it->second.sent.add(total_bytes);

  if (to_it == nodes_.end() || to_it->second.endpoint == nullptr) {
    ++dropped_;
    return;
  }
  auto blocked_it = blocked_.find(link_key(from, to));
  if (blocked_it != blocked_.end() && blocked_it->second > 0) {
    ++dropped_;
    return;
  }
  if (config_.drop_probability > 0 && drop_rng_.bernoulli(config_.drop_probability)) {
    ++dropped_;
    return;
  }

  Duration latency = sample_latency(total_bytes);
  Endpoint* endpoint = to_it->second.endpoint;
  NodeId dest = to;
  auto delivery = [this, from, dest, endpoint, message = std::move(message)]() {
    // Re-check liveness at delivery time: the destination may have crashed
    // (been removed) while the message was in flight.
    auto it = nodes_.find(dest.value);
    if (it == nodes_.end() || it->second.endpoint != endpoint) return;
    endpoint->deliver(from, message);
  };
  static_assert(EventQueue::Callback::stores_inline<decltype(delivery)>,
                "message delivery must not allocate");
  sim_.schedule_after(latency, std::move(delivery));
}

void SimNetwork::partition(const std::vector<NodeId>& side_a, const std::vector<NodeId>& side_b) {
  for (NodeId a : side_a) {
    for (NodeId b : side_b) {
      block_link(a, b);
      block_link(b, a);
    }
  }
}

void SimNetwork::partition_one_way(const std::vector<NodeId>& from,
                                   const std::vector<NodeId>& to) {
  for (NodeId a : from) {
    for (NodeId b : to) {
      block_link(a, b);
    }
  }
}

void SimNetwork::heal() { blocked_.clear(); }

void SimNetwork::block_link(NodeId from, NodeId to) { blocked_[link_key(from, to)] += 1; }

void SimNetwork::unblock_link(NodeId from, NodeId to) {
  auto it = blocked_.find(link_key(from, to));
  if (it == blocked_.end()) return;
  if (--it->second <= 0) blocked_.erase(it);
}

void SimNetwork::reset_traffic() {
  client_traffic_ = TrafficStats{};
  replica_traffic_ = TrafficStats{};
  for (auto& [id, entry] : nodes_) entry.sent = TrafficStats{};
  dropped_ = 0;
}

}  // namespace idem::sim
