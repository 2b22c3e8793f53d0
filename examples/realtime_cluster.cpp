// Real-time cluster: the same IDEM implementation that runs in the
// deterministic simulator, here running over real kernel TCP sockets on
// an epoll event loop — including a live leader crash with view change.
//
//   ./build/examples/realtime_cluster
#include <cstdio>
#include <memory>
#include <vector>

#include "app/kv_store.hpp"
#include "common/histogram.hpp"
#include "idem/acceptance.hpp"
#include "idem/client.hpp"
#include "idem/replica.hpp"
#include "rpc/event_loop.hpp"
#include "rpc/tcp_transport.hpp"

using namespace idem;

namespace {

struct LoadState {
  Histogram latency;
  std::uint64_t replies = 0;
  std::uint64_t rejects = 0;
};

/// Closed-loop driver for one client on the real event loop.
void drive(rpc::EventLoop& loop, core::IdemClient& client, LoadState& state,
           std::uint64_t index) {
  app::KvCommand cmd;
  cmd.op = app::KvOp::Put;
  cmd.key = "key" + std::to_string(index % 64);
  cmd.value = "value-" + std::to_string(index);
  client.invoke(cmd.encode(), [&, index](const consensus::Outcome& outcome) {
    state.latency.record(outcome.latency());
    if (outcome.kind == consensus::Outcome::Kind::Reply) {
      ++state.replies;
    } else {
      ++state.rejects;
    }
    loop.schedule_after(0, [&, index] { drive(loop, client, state, index + 1); });
  });
}

}  // namespace

int main() {
  std::printf("== IDEM over real TCP (loopback, epoll event loop) ==\n\n");

  rpc::EventLoop loop(/*seed=*/42);
  rpc::TcpTransport transport(loop);

  core::IdemConfig config;
  config.n = 3;
  config.f = 1;
  config.reject_threshold = 50;
  config.viewchange_timeout = 500 * kMillisecond;

  std::vector<std::unique_ptr<core::IdemReplica>> replicas;
  for (std::uint32_t i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<core::IdemReplica>(
        loop, transport, ReplicaId{i}, config, std::make_unique<app::KvStore>(),
        core::make_default_acceptance(config, 4)));
    std::printf("replica %u listening on 127.0.0.1:%u\n", i,
                transport.port_of(consensus::replica_address(ReplicaId{i})));
  }

  const std::size_t num_clients = 4;
  core::IdemClientConfig client_config;
  client_config.retry_interval = 300 * kMillisecond;
  std::vector<std::unique_ptr<core::IdemClient>> clients;
  LoadState state;
  for (std::size_t c = 0; c < num_clients; ++c) {
    clients.push_back(
        std::make_unique<core::IdemClient>(loop, transport, ClientId{c}, client_config));
  }

  std::printf("\nphase 1: %zu closed-loop clients for 2 s of wall-clock time ...\n",
              num_clients);
  for (auto& client : clients) drive(loop, *client, state, 0);
  loop.run_for(2 * kSecond);

  std::printf("  %llu replies (%.0f ops/s), %llu rejects | latency p50 %.0f us,"
              " p99 %.0f us\n",
              static_cast<unsigned long long>(state.replies),
              static_cast<double>(state.replies) / 2.0,
              static_cast<unsigned long long>(state.rejects),
              to_us(state.latency.p50()), to_us(state.latency.p99()));

  std::printf("\nphase 2: crashing the leader (replica 0) live ...\n");
  replicas[0]->crash();
  // The running drivers capture `state` by reference; reset it in place.
  state = LoadState{};
  loop.run_for(2 * kSecond);

  std::printf("  view change completed: replica 1 leader = %s (view %llu)\n",
              replicas[1]->is_leader() ? "yes" : "no",
              static_cast<unsigned long long>(replicas[1]->view().value));
  std::printf("  %llu replies after the crash | latency p50 %.0f us, p99 %.0f us\n",
              static_cast<unsigned long long>(state.replies),
              to_us(state.latency.p50()), to_us(state.latency.p99()));

  std::printf("\nThe protocol stack (replica + client code) is byte-identical to the\n"
              "one the simulator benchmarks — only Runtime and Transport differ.\n");
  return 0;
}
