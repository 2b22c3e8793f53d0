// Multi-process IDEM deployment: run each replica (and the client) as its
// own OS process, communicating over real TCP.
//
// Terminal 1:  ./realtime_node replica 0 9100 9101 9102
// Terminal 2:  ./realtime_node replica 1 9100 9101 9102
// Terminal 3:  ./realtime_node replica 2 9100 9101 9102
// Terminal 4:  ./realtime_node client 9100 9101 9102
//
// The replica index selects which port this process binds; the full port
// list tells it where its peers live. The client issues a small stream of
// KV operations and prints every outcome.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "idem/acceptance.hpp"
#include "idem/client.hpp"
#include "idem/replica.hpp"
#include "rpc/event_loop.hpp"
#include "rpc/tcp_transport.hpp"

using namespace idem;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

core::IdemConfig protocol_config(std::size_t n) {
  core::IdemConfig config;
  config.n = n;
  config.f = (n - 1) / 2;
  config.reject_threshold = 50;
  config.viewchange_timeout = 2 * kSecond;
  return config;
}

int run_replica(std::uint32_t index, const std::vector<std::uint16_t>& ports) {
  const std::size_t n = ports.size();
  rpc::EventLoop loop(1000 + index);
  rpc::TcpTransportConfig tcfg;
  tcfg.fixed_port = ports[index];
  rpc::TcpTransport transport(loop, tcfg);

  core::IdemConfig config = protocol_config(n);
  auto replica = std::make_unique<core::IdemReplica>(loop, transport, ReplicaId{index}, config,
                                                     std::make_unique<app::KvStore>(),
                                                     core::make_default_acceptance(config, 16));
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i == index) continue;
    transport.set_remote(consensus::replica_address(ReplicaId{i}), ports[i]);
  }
  std::printf("replica %u up on 127.0.0.1:%u (leader of view 0: replica 0)\n", index,
              transport.port_of(replica->id()));
  std::fflush(stdout);

  while (!g_stop) {
    loop.run_for(500 * kMillisecond);
    std::printf("replica %u: view=%llu leader=%s executed=%llu rejected=%llu\r", index,
                static_cast<unsigned long long>(replica->view().value),
                replica->is_leader() ? "yes" : "no ",
                static_cast<unsigned long long>(replica->stats().executed),
                static_cast<unsigned long long>(replica->stats().rejected));
    std::fflush(stdout);
  }
  std::printf("\nreplica %u shutting down\n", index);
  return 0;
}

int run_client(const std::vector<std::uint16_t>& ports) {
  const std::size_t n = ports.size();
  rpc::EventLoop loop(777);
  rpc::TcpTransport transport(loop);

  for (std::uint32_t i = 0; i < n; ++i) {
    transport.set_remote(consensus::replica_address(ReplicaId{i}), ports[i]);
  }

  core::IdemClientConfig client_config;
  client_config.n = n;
  client_config.f = (n - 1) / 2;
  client_config.retry_interval = 500 * kMillisecond;
  core::IdemClient client(loop, transport, ClientId{1}, client_config);

  std::uint64_t issued = 0;
  std::function<void()> next = [&] {
    if (g_stop) {
      loop.stop();
      return;
    }
    app::KvCommand cmd;
    cmd.op = (issued % 2 == 0) ? app::KvOp::Put : app::KvOp::Get;
    cmd.key = "item" + std::to_string(issued % 8);
    if (cmd.op == app::KvOp::Put) cmd.value = "v" + std::to_string(issued);
    ++issued;
    client.invoke(cmd.encode(), [&](const consensus::Outcome& outcome) {
      const char* what = outcome.kind == consensus::Outcome::Kind::Reply      ? "reply"
                         : outcome.kind == consensus::Outcome::Kind::Rejected ? "REJECT"
                                                                              : "timeout";
      std::printf("op %llu -> %s in %.2f ms\n", static_cast<unsigned long long>(issued),
                  what, to_ms(outcome.latency()));
      loop.schedule_after(250 * kMillisecond, next);
    });
  };
  next();
  loop.run();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  auto usage = [&] {
    std::fprintf(stderr,
                 "usage:\n"
                 "  %s replica <index> <port0> <port1> ... <portN-1>\n"
                 "  %s client <port0> <port1> ... <portN-1>\n",
                 argv[0], argv[0]);
    return 2;
  };
  if (argc < 3) return usage();

  if (std::strcmp(argv[1], "replica") == 0) {
    if (argc < 5) return usage();
    std::uint32_t index = static_cast<std::uint32_t>(std::strtoul(argv[2], nullptr, 10));
    std::vector<std::uint16_t> ports;
    for (int i = 3; i < argc; ++i) {
      ports.push_back(static_cast<std::uint16_t>(std::strtoul(argv[i], nullptr, 10)));
    }
    if (index >= ports.size()) return usage();
    return run_replica(index, ports);
  }
  if (std::strcmp(argv[1], "client") == 0) {
    std::vector<std::uint16_t> ports;
    for (int i = 2; i < argc; ++i) {
      ports.push_back(static_cast<std::uint16_t>(std::strtoul(argv[i], nullptr, 10)));
    }
    if (ports.size() < 3) return usage();
    return run_client(ports);
  }
  return usage();
}
