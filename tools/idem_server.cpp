// idem-server: hosts one IDEM replica as a standalone TCP server.
//
// Three of these on one machine make a live cluster (ports chosen up
// front); clients connect with idem_client. The replica code is the exact
// IdemReplica the simulator benchmarks — only the runtime (epoll event
// loop, wall clock) and transport (kernel TCP) differ.
//
//   idem_server --replica-id 0 --listen :7000 --peer 1=:7001 --peer 2=:7002
//   idem_server --replica-id 1 --listen :7001 --peer 0=:7000 --peer 2=:7002
//   idem_server --replica-id 2 --listen :7002 --peer 0=:7000 --peer 1=:7001
//
// Runs until SIGINT/SIGTERM (or --seconds); prints protocol and transport
// counters on exit. Exit code 0 on a clean stop, 2 on usage errors
// (including a malformed number, n != 2f + 1, or a replica or peer id not
// below n).
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "app/kv_store.hpp"
#include "consensus/addresses.hpp"
#include "idem/acceptance.hpp"
#include "idem/replica.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics_registry.hpp"
#include "real/admin.hpp"
#include "cli_util.hpp"
#include "rpc/event_loop.hpp"
#include "rpc/tcp_transport.hpp"
#include "shard/gate.hpp"
#include "shard/shard_map.hpp"

using namespace idem;

namespace {

struct Options {
  std::uint32_t replica_id = 0;
  rpc::PeerAddress listen{"127.0.0.1", 0};
  std::vector<std::pair<std::uint32_t, rpc::PeerAddress>> peers;
  std::size_t n = 3;
  std::size_t f = 1;
  std::size_t reject_threshold = 50;
  std::size_t expected_clients = 16;
  std::uint64_t seed = 1;
  double seconds = 0;  ///< 0 = run until SIGINT/SIGTERM
  double viewchange_seconds = 1.5;
  std::size_t batch_max = 32;
  bool edf = false;            ///< --discipline edf
  bool deadline_aware = false; ///< wrap acceptance in core::DeadlineAware
  std::size_t max_conns = 0;          ///< inbound connection cap (0 = unlimited)
  double idle_timeout_sec = 0;        ///< evict idle inbound connections (0 = off)
  double half_open_timeout_sec = 0;   ///< evict trickled partial frames (0 = off)
  std::size_t read_buffer = 0;        ///< per-connection recv buffer (0 = default)
  bool admin = false;             ///< --admin-port given
  std::uint16_t admin_port = 0;   ///< 0 = ephemeral
  bool sharded = false;                ///< --shard-group given
  std::uint32_t shard_group = 0;       ///< this replica's replication group
  std::size_t shard_count = 0;         ///< uniform map over M groups (0 = map file)
  const char* shard_map_file = nullptr;
  const char* trace_out = nullptr;
  std::size_t trace_capacity = 1u << 18;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --replica-id I --listen [HOST:]PORT --peer J=[HOST:]PORT ...\n"
      "  --replica-id I     id of this replica (0-based, required)\n"
      "  --listen ADDR      bind address; HOST defaults to 127.0.0.1, use\n"
      "                     0.0.0.0 to accept non-local peers (required)\n"
      "  --peer J=ADDR      address of replica J (repeat for every peer)\n"
      "  --n N              cluster size, n = 2f + 1      (default: 3)\n"
      "  --f F              tolerated crash faults        (default: 1)\n"
      "  --rt N             reject threshold r            (default: 50)\n"
      "  --clients N        expected client population,\n"
      "                     sizes the AQM groups          (default: 16)\n"
      "  --seed N           rng seed                      (default: 1)\n"
      "  --seconds S        stop after S seconds          (default: until signal)\n"
      "  --viewchange S     progress timeout in seconds   (default: 1.5)\n"
      "  --batch-max N      max request ids per PROPOSE   (default: 32)\n"
      "  --discipline D     fifo | edf: service-queue order for client\n"
      "                     REQUESTs; edf drains earliest-deadline-first\n"
      "                                                   (default: fifo)\n"
      "  --deadline-aware   reject REQUESTs whose latency budget the online\n"
      "                     wait estimator says cannot be met\n"
      "  --max-conns N      cap concurrent inbound connections; beyond it,\n"
      "                     new connections are shed at accept\n"
      "                     (reason connection-limit)      (default: unlimited)\n"
      "  --idle-timeout S   evict inbound connections that carried nothing\n"
      "                     either way for S seconds       (default: off)\n"
      "  --half-open-timeout S\n"
      "                     evict inbound connections holding a partial\n"
      "                     frame for S seconds (slow-loris defence)\n"
      "                     (default: off)\n"
      "  --read-buffer N    per-connection receive buffer bytes; shrink for\n"
      "                     many-thousand-connection storms (default: 16384)\n"
      "  --shard-group G    this replica's replication group: REQUESTs whose\n"
      "                     key hashes outside G's ranges get a WrongShard\n"
      "                     REJECT naming the home group (requires\n"
      "                     --shard-count or --shard-map)\n"
      "  --shard-count M    route by a uniform hash-range map over M groups\n"
      "  --shard-map FILE   route by a shard map JSON file\n"
      "                     ({\"epoch\":E,\"ranges\":[{\"begin\":B,\"group\":G},...]})\n"
      "  --admin-port P     serve live telemetry over HTTP on 127.0.0.1:P\n"
      "                     (/metrics, /stats, /trace; 0 = ephemeral, the\n"
      "                     chosen port is printed at startup)\n"
      "  --trace-out PATH   record a request-lifecycle trace and export it\n"
      "                     as Chrome trace JSON on exit (stitch exports\n"
      "                     from several processes with trace_merge)\n"
      "  --trace-capacity N trace ring capacity in events (default: 2^18)\n",
      argv0);
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options options;
  bool saw_id = false, saw_listen = false;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() { return cli::next_value(argc, argv, i); };
    auto number = [&](auto& out, auto... range) {
      return cli::next_number(argc, argv, i, out, range...);
    };
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
      usage(argv[0]);
      std::exit(0);
    } else if (!std::strcmp(arg, "--replica-id")) {
      if (!number(options.replica_id)) return std::nullopt;
      saw_id = true;
    } else if (!std::strcmp(arg, "--listen")) {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      auto address = rpc::parse_address(v);
      if (!address.has_value()) {
        std::fprintf(stderr, "%s: bad --listen address '%s'\n", argv[0], v);
        return std::nullopt;
      }
      options.listen = *address;
      saw_listen = true;
    } else if (!std::strcmp(arg, "--peer")) {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr) {
        std::fprintf(stderr, "%s: --peer wants J=ADDR, got '%s'\n", argv[0], v);
        return std::nullopt;
      }
      auto peer = cli::parse_number<std::uint32_t>(argv[0], arg, std::string(v, eq).c_str());
      if (!peer.has_value()) return std::nullopt;
      auto address = rpc::parse_address(eq + 1);
      if (!address.has_value()) {
        std::fprintf(stderr, "%s: bad --peer address '%s'\n", argv[0], eq + 1);
        return std::nullopt;
      }
      options.peers.emplace_back(*peer, *address);
    } else if (!std::strcmp(arg, "--n")) {
      // Replica ids are 32-bit.
      if (!number(options.n, 1, std::numeric_limits<std::uint32_t>::max())) return std::nullopt;
    } else if (!std::strcmp(arg, "--f")) {
      if (!number(options.f)) return std::nullopt;
    } else if (!std::strcmp(arg, "--rt")) {
      if (!number(options.reject_threshold)) return std::nullopt;
    } else if (!std::strcmp(arg, "--clients")) {
      if (!number(options.expected_clients)) return std::nullopt;
    } else if (!std::strcmp(arg, "--seed")) {
      if (!number(options.seed)) return std::nullopt;
    } else if (!std::strcmp(arg, "--seconds")) {
      if (!number(options.seconds, 0.0)) return std::nullopt;
    } else if (!std::strcmp(arg, "--viewchange")) {
      if (!number(options.viewchange_seconds, 0.0)) return std::nullopt;
    } else if (!std::strcmp(arg, "--batch-max")) {
      if (!number(options.batch_max, 1)) return std::nullopt;
    } else if (!std::strcmp(arg, "--discipline")) {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      if (!std::strcmp(v, "edf")) {
        options.edf = true;
      } else if (std::strcmp(v, "fifo") != 0) {
        std::fprintf(stderr, "%s: --discipline wants fifo or edf, got '%s'\n", argv[0], v);
        return std::nullopt;
      }
    } else if (!std::strcmp(arg, "--deadline-aware")) {
      options.deadline_aware = true;
    } else if (!std::strcmp(arg, "--max-conns")) {
      if (!number(options.max_conns)) return std::nullopt;
    } else if (!std::strcmp(arg, "--idle-timeout")) {
      if (!number(options.idle_timeout_sec, 0.0)) return std::nullopt;
    } else if (!std::strcmp(arg, "--half-open-timeout")) {
      if (!number(options.half_open_timeout_sec, 0.0)) return std::nullopt;
    } else if (!std::strcmp(arg, "--read-buffer")) {
      if (!number(options.read_buffer)) return std::nullopt;
    } else if (!std::strcmp(arg, "--shard-group")) {
      if (!number(options.shard_group)) return std::nullopt;
      options.sharded = true;
    } else if (!std::strcmp(arg, "--shard-count")) {
      if (!number(options.shard_count)) return std::nullopt;
    } else if (!std::strcmp(arg, "--shard-map")) {
      options.shard_map_file = value();
      if (options.shard_map_file == nullptr) return std::nullopt;
    } else if (!std::strcmp(arg, "--admin-port")) {
      if (!number(options.admin_port)) return std::nullopt;
      options.admin = true;
    } else if (!std::strcmp(arg, "--trace-out")) {
      options.trace_out = value();
      if (options.trace_out == nullptr) return std::nullopt;
    } else if (!std::strcmp(arg, "--trace-capacity")) {
      if (!number(options.trace_capacity, 1)) return std::nullopt;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg);
      return std::nullopt;
    }
  }
  if (!saw_id || !saw_listen) {
    if (argc > 1) std::fprintf(stderr, "%s: --replica-id and --listen are required\n", argv[0]);
    return std::nullopt;
  }
  // Odd n with f = (n - 1) / 2, i.e. n = 2f + 1 (written so no f overflows).
  if (options.n % 2 == 0 || options.f != options.n / 2) {
    std::fprintf(stderr, "%s: --n %zu and --f %zu break n = 2f + 1\n", argv[0], options.n,
                 options.f);
    return std::nullopt;
  }
  if (options.replica_id >= options.n) {
    std::fprintf(stderr, "%s: --replica-id %u is not below --n %zu\n", argv[0],
                 options.replica_id, options.n);
    return std::nullopt;
  }
  for (const auto& [peer_id, address] : options.peers) {
    if (peer_id >= options.n) {
      std::fprintf(stderr, "%s: --peer %u is not below --n %zu\n", argv[0], peer_id, options.n);
      return std::nullopt;
    }
  }
  if (options.sharded && options.shard_count == 0 && options.shard_map_file == nullptr) {
    std::fprintf(stderr, "%s: --shard-group needs --shard-count or --shard-map\n", argv[0]);
    return std::nullopt;
  }
  if (!options.sharded && (options.shard_count > 0 || options.shard_map_file != nullptr)) {
    std::fprintf(stderr, "%s: --shard-count/--shard-map need --shard-group\n", argv[0]);
    return std::nullopt;
  }
  return options;
}

rpc::EventLoop* g_loop = nullptr;

// stop() is async-signal-safe: an atomic store plus an eventfd write.
void handle_signal(int) {
  if (g_loop != nullptr) g_loop->stop();
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = parse_args(argc, argv);
  if (!parsed.has_value()) {
    usage(argv[0]);
    return 2;
  }
  const Options& options = *parsed;

  // Capture the epoch explicitly so trace timestamps and the wall-clock
  // stitching anchor refer to the same instant.
  const rpc::EventLoop::Epoch epoch = std::chrono::steady_clock::now();
  rpc::EventLoop loop(options.seed, epoch);
  rpc::TcpTransportConfig transport_config;
  transport_config.fixed_port = options.listen.port;
  transport_config.listen_host = options.listen.host;
  transport_config.max_inbound_connections = options.max_conns;
  transport_config.idle_timeout = static_cast<Duration>(options.idle_timeout_sec * kSecond);
  transport_config.half_open_timeout =
      static_cast<Duration>(options.half_open_timeout_sec * kSecond);
  if (options.read_buffer > 0) transport_config.read_buffer_bytes = options.read_buffer;
  rpc::TcpTransport transport(loop, transport_config);

  core::IdemConfig config;
  config.n = options.n;
  config.f = options.f;
  config.reject_threshold = options.reject_threshold;
  config.viewchange_timeout = static_cast<Duration>(options.viewchange_seconds * kSecond);
  config.batch_max = options.batch_max;

  // The gate outlives the replica (the config holds a borrowed pointer).
  std::unique_ptr<shard::GroupShardGate> gate;
  if (options.sharded) {
    shard::ShardMap map =
        shard::ShardMap::uniform(options.shard_count > 0 ? options.shard_count : 1);
    if (options.shard_map_file != nullptr) {
      auto text = cli::read_file(argv[0], options.shard_map_file);
      if (!text.has_value()) return 2;
      try {
        map = shard::ShardMap::parse(*text);
      } catch (const json::ParseError& e) {
        std::fprintf(stderr, "%s: bad shard map %s: %s\n", argv[0], options.shard_map_file,
                     e.what());
        return 2;
      }
    }
    gate = std::make_unique<shard::GroupShardGate>(options.shard_group, std::move(map));
    config.shard_gate = gate.get();
  }

  std::unique_ptr<obs::TraceRecorder> trace;
  if (options.trace_out != nullptr || options.admin) {
    trace = std::make_unique<obs::TraceRecorder>(options.trace_capacity);
    config.trace = trace.get();
  }

  const obs::ChromeTraceMeta trace_meta{
      "idem_server r" + std::to_string(options.replica_id), rpc::realtime_anchor_ns(epoch)};

  std::unique_ptr<core::AcceptanceTest> acceptance =
      core::make_default_acceptance(config, options.expected_clients);
  if (options.deadline_aware) {
    acceptance = std::make_unique<core::DeadlineAware>(core::DeadlineAware::Params{},
                                                       std::move(acceptance));
  }
  const auto replica = std::make_unique<core::IdemReplica>(
      loop, transport, ReplicaId{options.replica_id}, config, std::make_unique<app::KvStore>(),
      std::move(acceptance));
  if (options.edf) replica->set_discipline(sim::DisciplineKind::Edf);
  for (const auto& [peer_id, address] : options.peers) {
    transport.set_remote(consensus::replica_address(ReplicaId{peer_id}), address);
  }

  // The admin shares the replica's loop, so its reads are direct calls.
  obs::MetricsRegistry metrics;
  std::unique_ptr<real::Admin> admin;
  if (options.admin) {
    replica->register_metrics(metrics);
    transport.register_metrics(metrics);
    loop.register_metrics(metrics);
    if (gate) gate->register_metrics(metrics);
    real::Admin::Member member{"r" + std::to_string(options.replica_id),
                               gate ? std::optional(gate->group()) : std::nullopt,
                               [&metrics] { return metrics.read(); },
                               [&trace] { return trace->snapshot(); }};
    admin = std::make_unique<real::Admin>(loop, options.admin_port, std::vector{member},
                                          trace_meta);
    std::printf("idem_server: admin on 127.0.0.1:%u (/metrics /stats /trace)\n",
                admin->port());
  }

  std::printf("idem_server: replica %u listening on %s:%u (n=%zu f=%zu rt=%zu)\n",
              options.replica_id, options.listen.host.c_str(),
              transport.port_of(consensus::replica_address(ReplicaId{options.replica_id})),
              options.n, options.f, options.reject_threshold);
  if (gate) {
    std::printf("idem_server: shard group %u, map epoch %llu (%zu ranges)\n",
                gate->group(), static_cast<unsigned long long>(gate->epoch()),
                gate->map().entries().size());
  }
  std::fflush(stdout);

  g_loop = &loop;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  if (options.seconds > 0) {
    loop.run_for(static_cast<Duration>(options.seconds * kSecond));
  } else {
    loop.run();
  }
  const core::ReplicaStats& stats = replica->stats();
  std::printf("idem_server: stopping (view %llu, leader %s)\n",
              static_cast<unsigned long long>(replica->view().value),
              replica->is_leader() ? "yes" : "no");
  std::printf("  requests %llu | accepted %llu | rejected %llu | executed %llu |"
              " deadline misses %llu\n",
              static_cast<unsigned long long>(stats.requests_received),
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.executed),
              static_cast<unsigned long long>(stats.deadline_misses));
  if (gate) {
    const shard::GroupShardGate::Stats gs = gate->stats();
    std::printf("  shard: admitted %llu | redirected %llu (wrong shard) | frozen %llu\n",
                static_cast<unsigned long long>(gs.admitted),
                static_cast<unsigned long long>(gs.redirected),
                static_cast<unsigned long long>(gs.frozen));
  }
  const rpc::TransportStats& net = transport.stats();
  std::printf("  tcp: sent %llu msgs / %llu bytes | delivered %llu | dropped %llu |"
              " decode errors %llu\n",
              static_cast<unsigned long long>(net.messages_sent),
              static_cast<unsigned long long>(net.bytes_sent),
              static_cast<unsigned long long>(net.messages_delivered),
              static_cast<unsigned long long>(net.dropped),
              static_cast<unsigned long long>(net.decode_errors));
  if (options.trace_out != nullptr && trace) {
    std::FILE* out = std::fopen(options.trace_out, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "idem_server: cannot write %s\n", options.trace_out);
      return 1;
    }
    obs::ChromeTraceStats exported = obs::write_chrome_trace(out, trace->snapshot(), trace_meta);
    std::fclose(out);
    std::printf("  trace: %llu spans, %llu instants (%llu shed) -> %s\n",
                static_cast<unsigned long long>(exported.spans),
                static_cast<unsigned long long>(exported.instants),
                static_cast<unsigned long long>(trace->overwritten()), options.trace_out);
  }
  return 0;
}
