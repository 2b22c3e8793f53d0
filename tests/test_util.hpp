// Shared helpers for protocol tests.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "consensus/messages.hpp"
#include "consensus/service_client.hpp"
#include "harness/cluster.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"
#include "sim/transport.hpp"

namespace idem::test {

inline std::vector<std::byte> put_cmd(std::string key, std::string value) {
  app::KvCommand cmd;
  cmd.op = app::KvOp::Put;
  cmd.key = std::move(key);
  cmd.value = std::move(value);
  return cmd.encode();
}

inline std::vector<std::byte> get_cmd(std::string key) {
  app::KvCommand cmd;
  cmd.op = app::KvOp::Get;
  cmd.key = std::move(key);
  return cmd.encode();
}

/// A transport that connects nothing: sends vanish. Tests hand messages
/// to deliver() themselves, so a node can run on an rpc::EventLoop without
/// sockets.
class NullTransport final : public sim::Transport {
 public:
  void add_node(sim::NodeId, sim::NodeKind, sim::Endpoint*) override {}
  void remove_node(sim::NodeId) override {}
  void send(sim::NodeId, sim::NodeId, sim::PayloadPtr) override {}
};

/// A scriptable peer that records everything a replica sends to it and
/// can inject arbitrary messages.
class Probe final : public sim::Node {
 public:
  Probe(sim::Simulator& sim, sim::SimNetwork& net, sim::NodeId id,
        sim::NodeKind kind = sim::NodeKind::Replica)
      : sim::Node(sim, net, id, kind) {}

  std::vector<std::shared_ptr<const msg::Message>> received;

  template <typename M>
  std::vector<const M*> received_of() const {
    std::vector<const M*> out;
    for (const auto& message : received) {
      if (const auto* typed = dynamic_cast<const M*>(message.get())) out.push_back(typed);
    }
    return out;
  }

  void inject(sim::NodeId to, sim::PayloadPtr message) { send(to, std::move(message)); }

 protected:
  void on_message(sim::NodeId, const sim::Payload& message) override {
    if (const auto* typed = dynamic_cast<const msg::Message*>(&message)) {
      // Re-decode to keep an owning copy.
      received.push_back(msg::decode(typed->encode()));
    }
  }
};

/// Invokes one operation and runs the simulation until it completes (or
/// `max_wait` of simulated time passes). Returns nullopt on stall.
inline std::optional<consensus::Outcome> invoke_and_wait(harness::Cluster& cluster,
                                                         std::size_t client_index,
                                                         std::vector<std::byte> command,
                                                         Duration max_wait = 30 * kSecond) {
  std::optional<consensus::Outcome> result;
  cluster.client(client_index)
      .invoke(std::move(command), [&](const consensus::Outcome& outcome) { result = outcome; });
  Time deadline = cluster.simulator().now() + max_wait;
  cluster.simulator().run_while(
      [&] { return !result.has_value() && cluster.simulator().now() < deadline; });
  return result;
}

/// Records the execution order (sqn, request id) at every replica, and
/// every state transfer an IDEM replica restored, so tests can assert the
/// fundamental SMR safety property: all replicas execute the same requests
/// in the same order.
class ExecutionRecorder {
 public:
  explicit ExecutionRecorder(harness::Cluster& cluster) {
    const std::size_t n = cluster.config().n;
    logs_.resize(n);
    restores_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto hook = [this, i](SeqNum sqn, RequestId id) { logs_[i].push_back({sqn, id}); };
      if (auto* r = cluster.idem_replica(i)) {
        r->on_execute = hook;
        r->on_restore = [this, i](SeqNum upto) { restores_[i].push_back({logs_[i].size(), upto}); };
      } else if (auto* p = cluster.paxos_replica(i)) {
        p->on_execute = hook;
      } else if (auto* s = cluster.smart_replica(i)) {
        s->on_execute = hook;
      }
    }
  }

  const std::vector<std::pair<SeqNum, RequestId>>& log(std::size_t replica) const {
    return logs_[replica];
  }

  /// Asserts pairwise prefix consistency of the execution logs: one log
  /// may be shorter (lagging replica), but where both have entries they
  /// must match exactly, position by position. The one exception is a
  /// state transfer: a replica that restored the state of every instance
  /// up to `upto` executed none of the instances it skipped, so at that
  /// point of its log the other log skips to its first instance above
  /// `upto`, and the restoring replica must resume exactly there.
  void expect_consistent() const {
    for (std::size_t r = 0; r < logs_.size(); ++r) {
      for (const auto& [position, upto] : restores_[r]) {
        if (position >= logs_[r].size()) continue;
        ASSERT_GT(logs_[r][position].first, upto)
            << "replica " << r << " executed an instance its state transfer covered";
      }
    }
    for (std::size_t a = 0; a < logs_.size(); ++a) {
      for (std::size_t b = a + 1; b < logs_.size(); ++b) {
        std::size_t i = 0, j = 0, restore_a = 0, restore_b = 0;
        for (;;) {
          // A skip can pass the other log's restores; apply until neither moves.
          while (skip_restored(a, i, restore_a, b, j) || skip_restored(b, j, restore_b, a, i)) {
          }
          if (i >= logs_[a].size() || j >= logs_[b].size()) break;
          ASSERT_EQ(logs_[a][i].first, logs_[b][j].first)
              << "sqn divergence between replica " << a << " and " << b << " at positions " << i
              << " and " << j;
          ASSERT_EQ(logs_[a][i].second, logs_[b][j].second)
              << "request divergence between replica " << a << " and " << b << " at positions "
              << i << " and " << j;
          ++i;
          ++j;
        }
      }
    }
  }

  /// True if `id` was executed somewhere.
  bool executed_anywhere(RequestId id) const {
    for (const auto& log : logs_) {
      for (const auto& [sqn, rid] : log) {
        if (rid == id) return true;
      }
    }
    return false;
  }

  std::size_t count_executions(std::size_t replica, RequestId id) const {
    std::size_t count = 0;
    for (const auto& [sqn, rid] : logs_[replica]) {
      if (rid == id) ++count;
    }
    return count;
  }

 private:
  /// Applies replica `x`'s restores recorded at or before its log position
  /// `i` to replica `y`: cursor `j` moves past every instance they covered.
  /// True when `j` moved.
  bool skip_restored(std::size_t x, std::size_t i, std::size_t& restore, std::size_t y,
                     std::size_t& j) const {
    bool moved = false;
    for (; restore < restores_[x].size() && restores_[x][restore].first <= i; ++restore) {
      const SeqNum upto = restores_[x][restore].second;
      for (; j < logs_[y].size() && logs_[y][j].first <= upto; ++j) moved = true;
    }
    return moved;
  }

  std::vector<std::vector<std::pair<SeqNum, RequestId>>> logs_;
  /// Per replica: (log length when the restore happened, its upto).
  std::vector<std::vector<std::pair<std::size_t, SeqNum>>> restores_;
};

/// A cluster configuration with fast timeouts suitable for unit tests.
inline harness::ClusterConfig test_cluster_config(harness::Protocol protocol,
                                                  std::size_t clients = 1,
                                                  std::uint64_t seed = 1) {
  harness::ClusterConfig config;
  config.protocol = protocol;
  config.clients = clients;
  config.seed = seed;
  config.preload = false;
  config.idem.viewchange_timeout = 300 * kMillisecond;
  config.paxos.viewchange_timeout = 300 * kMillisecond;
  config.paxos.heartbeat_interval = 100 * kMillisecond;
  config.idem_client.retry_interval = 200 * kMillisecond;
  return config;
}

}  // namespace idem::test
