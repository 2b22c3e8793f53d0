// Shared helpers for protocol tests.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "consensus/service_client.hpp"
#include "harness/cluster.hpp"

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

/// Records the execution order (sqn, request id) at every replica so tests
/// can assert the fundamental SMR safety property: all replicas execute
/// the same requests in the same order.
class ExecutionRecorder {
 public:
  explicit ExecutionRecorder(harness::Cluster& cluster) {
    const std::size_t n = cluster.config().n;
    logs_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto hook = [this, i](SeqNum sqn, RequestId id) { logs_[i].push_back({sqn, id}); };
      if (auto* r = cluster.idem_replica(i)) {
        r->on_execute = hook;
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
  /// must match exactly.
  void expect_consistent() const {
    for (std::size_t a = 0; a < logs_.size(); ++a) {
      for (std::size_t b = a + 1; b < logs_.size(); ++b) {
        std::size_t common = std::min(logs_[a].size(), logs_[b].size());
        for (std::size_t i = 0; i < common; ++i) {
          ASSERT_EQ(logs_[a][i].first, logs_[b][i].first)
              << "sqn divergence between replica " << a << " and " << b << " at position " << i;
          ASSERT_EQ(logs_[a][i].second, logs_[b][i].second)
              << "request divergence between replica " << a << " and " << b << " at position "
              << i;
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
  std::vector<std::vector<std::pair<SeqNum, RequestId>>> logs_;
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
  config.paxos_client.retry_interval = 250 * kMillisecond;
  config.smart_client.retry_interval = 250 * kMillisecond;
  return config;
}

}  // namespace idem::test
