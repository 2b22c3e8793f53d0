// Connection-storm scenario suite: proves timely rejection at 100x the
// paper's client count (Section 7 runs ~100 clients; the ramp scenario
// here holds 10,000 concurrent loopback connections).
//
// Four scenarios against an in-process 3-replica RealCluster, driven by
// real::StormEngine (one epoll thread multiplexing every session):
//
//   ramp      - grow to ~10k connections; measure connect (accept-path)
//               latency p50/p99.9 and per-connection server memory.
//   flash     - a small closed-loop population measures the pre-storm
//               peak, then the population jumps 4x past it; replies must
//               hold >= 50% of the pre-storm peak and the rejection-
//               notification p99.9 must stay bounded.
//   stampede  - crash the leader under a 1k-session population; every
//               session reconnects (jittered) while the survivors run a
//               view change; replies must resume after recovery.
//   loris     - slow-loris sessions trickle forever-unfinished frames;
//               the transport's half-open eviction must reclaim them
//               while normal sessions keep getting replies.
//
// Emits machine-readable JSON (default ./BENCH_storm.json, override with
// IDEM_STORM_JSON); the CI perf gate checks the flash scenario's
// reply_kops via bench_compare --peak.
//
// Environment knobs (all optional): IDEM_STORM_SESSIONS (ramp population,
// default 3334 => 10k connections), IDEM_STORM_RAMP_SECONDS (default 5),
// IDEM_STORM_SCENARIOS (comma list of ramp,flash,stampede,loris),
// IDEM_STORM_FLASH_BASE (default 32), IDEM_STORM_STAMPEDE_SESSIONS
// (default 1000), IDEM_STORM_RT (reject threshold, default 24),
// IDEM_STORM_SECONDS (measure span scale, default 1.0).
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "harness/table.hpp"
#include "real/cluster.hpp"
#include "real/storm.hpp"

using namespace idem;

namespace {

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atof(value);
}

bool scenario_enabled(const char* name) {
  const char* list = std::getenv("IDEM_STORM_SCENARIOS");
  if (list == nullptr || *list == '\0') return true;
  std::string text = list;
  for (std::size_t start = 0; start < text.size();) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    if (text.substr(start, comma - start) == name) return true;
    start = comma + 1;
  }
  return false;
}

struct StormPoint {
  std::string name;
  std::size_t sessions = 0;
  std::size_t connections = 0;       ///< peak established TCP connections
  double connect_p50_ms = 0;
  double connect_p999_ms = 0;
  double reply_kops = 0;
  double reject_kops = 0;
  double reject_p999_ms = 0;         ///< rejection-notification tail
  double per_conn_bytes = 0;         ///< server-side memory per connection
  std::uint64_t timeouts = 0;
  std::uint64_t resets = 0;
  std::uint64_t half_open_evictions = 0;
};

bool g_shape_ok = true;

/// Operations per `span`, in kreq/s.
double kops(std::uint64_t operations, Duration span) {
  return span > 0 ? static_cast<double>(operations) / to_sec(span) / 1000.0 : 0.0;
}

void check(bool ok, const char* what) {
  std::printf(" - %s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) g_shape_ok = false;
}

real::RealClusterConfig base_cluster_config(std::uint64_t seed, std::size_t reject_threshold,
                                            std::size_t expected_clients) {
  real::RealClusterConfig config;
  config.n = 3;
  config.f = 1;
  config.reject_threshold = reject_threshold;
  config.seed = seed;
  config.expected_clients = expected_clients;
  config.preload = true;
  config.workload.record_count = 1000;
  // Thousands of small-frame client connections: a 16 KiB receive buffer
  // each would cost the server ~160 MB at 10k connections. 1 KiB holds
  // any client REQUEST here and keeps per-connection memory honest.
  config.transport.read_buffer_bytes = 1024;
  return config;
}

double cluster_per_conn_bytes(real::RealCluster& cluster) {
  rpc::TransportMemory total;
  for (std::size_t i = 0; i < cluster.n(); ++i) {
    rpc::TransportMemory m = cluster.transport_memory(i);
    total.inbound_connections += m.inbound_connections;
    total.outbound_connections += m.outbound_connections;
    total.inbound_buffer_bytes += m.inbound_buffer_bytes;
    total.pending_write_bytes += m.pending_write_bytes;
  }
  return total.per_connection();
}

// --- scenario: ramp to 10k connections ------------------------------------
//
// Split across two processes: 10k loopback connections are 20k fd ends,
// more than any one process may hold under this machine's immovable
// 20000-fd cap (the sandbox masks CAP_SYS_RESOURCE, so even root cannot
// raise the hard limit). The child re-execs this binary in cluster-host
// mode (IDEM_STORM_HOST) and owns the inbound ends; the storm engine in
// the parent owns the client ends — which is also the honest shape:
// client and server never share an fd budget in a real deployment. The
// two talk over pipes with a three-verb line protocol (PORTS/MEM/QUIT).

int run_cluster_host() {
  real::StormEngine::raise_fd_limit(65536);
  real::RealClusterConfig config = base_cluster_config(11, 24, 64);
  real::RealCluster cluster(config);
  cluster.start();
  std::printf("PORTS");
  for (std::size_t i = 0; i < cluster.n(); ++i) {
    std::printf(" %u", static_cast<unsigned>(cluster.port_of(i)));
  }
  std::printf("\n");
  std::fflush(stdout);
  char line[256];
  while (std::fgets(line, sizeof line, stdin) != nullptr) {
    if (std::strncmp(line, "MEM", 3) == 0) {
      std::size_t inbound = 0;
      for (std::size_t i = 0; i < cluster.n(); ++i) {
        inbound += cluster.transport_memory(i).inbound_connections;
      }
      std::printf("MEM %.0f %zu\n", cluster_per_conn_bytes(cluster), inbound);
      std::fflush(stdout);
    } else if (std::strncmp(line, "QUIT", 4) == 0) {
      break;
    }
  }
  cluster.shutdown();
  return 0;
}

struct ClusterHost {
  pid_t pid = -1;
  std::FILE* command = nullptr;  ///< child stdin: MEM / QUIT
  std::FILE* reply = nullptr;    ///< child stdout: PORTS / MEM lines
};

ClusterHost spawn_cluster_host(std::vector<rpc::PeerAddress>& replicas) {
  int to_child[2];
  int from_child[2];
  if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    ::dup2(to_child[0], 0);
    ::dup2(from_child[1], 1);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    ::setenv("IDEM_STORM_HOST", "1", 1);
    ::execl("/proc/self/exe", "fig_storm-host", static_cast<char*>(nullptr));
    std::perror("execl");
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  ClusterHost host;
  host.pid = pid;
  host.command = ::fdopen(to_child[1], "w");
  host.reply = ::fdopen(from_child[0], "r");
  char line[512];
  if (host.command == nullptr || host.reply == nullptr ||
      std::fgets(line, sizeof line, host.reply) == nullptr) {
    std::fprintf(stderr, "cluster host did not come up\n");
    std::exit(1);
  }
  std::istringstream ports(line);
  std::string tag;
  ports >> tag;
  unsigned port = 0;
  while (ports >> port) {
    replicas.push_back({"127.0.0.1", static_cast<std::uint16_t>(port)});
  }
  if (tag != "PORTS" || replicas.size() != 3) {
    std::fprintf(stderr, "bad cluster-host handshake: %s\n", line);
    std::exit(1);
  }
  return host;
}

StormPoint run_ramp(std::size_t sessions, Duration ramp, Duration hold) {
  std::vector<rpc::PeerAddress> replicas;
  ClusterHost host = spawn_cluster_host(replicas);

  real::StormOptions options;
  options.replicas = replicas;
  options.sessions = sessions;
  options.ramp = ramp;
  options.load.open_loop_rate = 0.5;  // open loop: a trickle per session, 10k alive
  options.seed = 11;
  options.load.workload = base_cluster_config(11, 24, 64).workload;
  real::StormEngine storm(options);
  storm.start();
  storm.run_for(ramp + hold);

  // Query server-side memory while every connection is still open.
  std::fprintf(host.command, "MEM\n");
  std::fflush(host.command);
  double per_conn = 0;
  std::size_t inbound = 0;
  char line[256];
  if (std::fgets(line, sizeof line, host.reply) != nullptr) {
    std::sscanf(line, "MEM %lf %zu", &per_conn, &inbound);
  }

  const real::StormWindow& w = storm.window();
  const harness::RunMetrics& m = storm.metrics();
  real::StormGauges g = storm.gauges();
  StormPoint point;
  point.name = "ramp";
  point.sessions = sessions;
  point.connections = g.open_connections;
  point.connect_p50_ms = to_ms(w.connect_latency.p50());
  point.connect_p999_ms = to_ms(w.connect_latency.p999());
  point.reply_kops = kops(m.replies, ramp + hold);
  point.reject_kops = kops(m.rejects, ramp + hold);
  if (m.rejects > 0) point.reject_p999_ms = to_ms(m.reject_latency.p999());
  point.per_conn_bytes = per_conn;
  point.timeouts = m.timeouts;
  point.resets = w.resets;

  std::fprintf(host.command, "QUIT\n");
  std::fflush(host.command);
  std::fclose(host.command);
  std::fclose(host.reply);
  int status = 0;
  ::waitpid(host.pid, &status, 0);

  std::printf("\nshape checks (ramp):\n");
  const std::size_t want = sessions * 3;
  check(point.connections >= want - want / 50,
        "ramp establishes (almost) every connection (>= 98% of 3 per session)");
  check(inbound >= want - want / 50,
        "the cluster host holds the full population's inbound ends");
  check(point.connect_p999_ms > 0, "connect latency p99.9 is measured");
  check(point.per_conn_bytes > 0 && point.per_conn_bytes <= 8192,
        "server memory stays under 8 KiB per connection");
  return point;
}

// --- scenario: flash crowd at 4x overload ---------------------------------

StormPoint run_flash(std::size_t base_sessions, double overload_factor, Duration pre,
                     Duration storm_span) {
  const std::size_t storm_sessions =
      static_cast<std::size_t>(static_cast<double>(base_sessions) * overload_factor);
  real::RealClusterConfig config = base_cluster_config(13, 24, storm_sessions);
  real::RealCluster cluster(config);
  cluster.start();

  real::StormOptions options;
  options.replicas = cluster.replica_addresses();
  options.sessions = base_sessions;
  // Closed loop (the default): population size IS the load.
  options.seed = 13;
  options.load.workload = config.workload;
  options.epoch = cluster.epoch();
  real::StormEngine storm(options);
  storm.start();
  storm.run_for(pre / 2);  // settle
  storm.reset_window();
  storm.run_for(pre / 2);  // measure the pre-storm peak
  const double pre_peak_kops = kops(storm.metrics().replies, pre / 2);

  storm.set_target_sessions(storm_sessions);
  storm.reset_window();
  storm.run_for(storm_span);
  const real::StormWindow& w = storm.window();
  const harness::RunMetrics& m = storm.metrics();

  StormPoint point;
  point.name = "flash";
  point.sessions = storm_sessions;
  point.connections = storm.gauges().open_connections;
  point.connect_p50_ms = to_ms(w.connect_latency.p50());
  point.connect_p999_ms = to_ms(w.connect_latency.p999());
  point.reply_kops = kops(m.replies, storm_span);
  point.reject_kops = kops(m.rejects, storm_span);
  if (m.rejects > 0) point.reject_p999_ms = to_ms(m.reject_latency.p999());
  point.per_conn_bytes = cluster_per_conn_bytes(cluster);
  point.timeouts = m.timeouts;
  point.resets = w.resets;
  cluster.shutdown();

  std::printf("\nshape checks (flash crowd, pre-storm peak %.1f kreq/s):\n", pre_peak_kops);
  check(m.rejects > 0, "proactive rejection engages under the flash crowd");
  check(point.reply_kops >= 0.5 * pre_peak_kops,
        "goodput holds during the storm (replies >= 50% of pre-storm peak)");
  check(m.rejects == 0 || point.reject_p999_ms <= 1000.0,
        "rejection-notification p99.9 stays bounded (<= 1 s)");
  return point;
}

// --- scenario: reconnect stampede after a leader crash --------------------

StormPoint run_stampede(std::size_t sessions, Duration settle, Duration crash_span,
                        Duration recover_span) {
  real::RealClusterConfig config = base_cluster_config(17, 24, 64);
  // The survivors need outstanding work plus this progress timeout to
  // elect a new leader (same knob the real-cluster crash test uses).
  config.idem.viewchange_timeout = 250 * kMillisecond;
  real::RealCluster cluster(config);
  cluster.start();

  real::StormOptions options;
  options.replicas = cluster.replica_addresses();
  options.sessions = sessions;
  options.ramp = settle / 2;
  options.load.open_loop_rate = 2.0;
  options.seed = 17;
  options.load.workload = config.workload;
  options.epoch = cluster.epoch();
  real::StormEngine storm(options);
  storm.start();
  storm.run_for(settle);

  const std::size_t leader = cluster.leader_index();
  std::printf("(crashing leader, replica %zu)\n", leader);
  cluster.crash_replica(leader);
  storm.reset_window();
  storm.run_for(crash_span);  // resets -> jittered reconnects -> view change
  const std::uint64_t stampede_connects = storm.window().connects;
  const std::uint64_t stampede_resets = storm.window().resets;

  storm.reset_window();
  storm.run_for(recover_span);
  const real::StormWindow& w = storm.window();
  const harness::RunMetrics& m = storm.metrics();

  StormPoint point;
  point.name = "stampede";
  point.sessions = sessions;
  point.connections = storm.gauges().open_connections;
  point.connect_p50_ms = to_ms(w.connect_latency.p50());
  point.connect_p999_ms = to_ms(w.connect_latency.p999());
  point.reply_kops = kops(m.replies, recover_span);
  point.reject_kops = kops(m.rejects, recover_span);
  if (m.rejects > 0) point.reject_p999_ms = to_ms(m.reject_latency.p999());
  point.per_conn_bytes = cluster_per_conn_bytes(cluster);
  point.timeouts = m.timeouts;
  point.resets = stampede_resets;
  cluster.shutdown();

  std::printf("\nshape checks (stampede: %llu resets, %llu reconnects during the crash window):\n",
              static_cast<unsigned long long>(stampede_resets),
              static_cast<unsigned long long>(stampede_connects));
  check(stampede_resets >= sessions,
        "the crash resets every session (stampede actually happened)");
  check(stampede_connects >= sessions,
        "sessions re-established connections during the crash window");
  check(m.replies > 0, "replies resume after the view change");
  check(point.connections >= sessions * 2 - sessions / 10,
        "sessions hold connections to both survivors after recovery");
  return point;
}

// --- scenario: slow-loris holds -------------------------------------------

StormPoint run_loris(std::size_t sessions, Duration span) {
  real::RealClusterConfig config = base_cluster_config(19, 24, 64);
  config.transport.half_open_timeout = 300 * kMillisecond;
  real::RealCluster cluster(config);
  cluster.start();

  real::StormOptions options;
  options.replicas = cluster.replica_addresses();
  options.sessions = sessions;
  options.slow_loris_fraction = 0.5;  // the normal half runs closed loop
  options.loris_trickle = 100 * kMillisecond;
  options.seed = 19;
  options.load.workload = config.workload;
  options.epoch = cluster.epoch();
  real::StormEngine storm(options);
  storm.start();
  storm.run_for(span);

  const real::StormWindow& w = storm.window();
  const harness::RunMetrics& m = storm.metrics();
  std::uint64_t evicted = 0;
  for (std::size_t i = 0; i < cluster.n(); ++i) {
    evicted += cluster.transport_stats(i).half_open_evictions;
  }

  StormPoint point;
  point.name = "loris";
  point.sessions = sessions;
  point.connections = storm.gauges().open_connections;
  point.connect_p50_ms = to_ms(w.connect_latency.p50());
  point.connect_p999_ms = to_ms(w.connect_latency.p999());
  point.reply_kops = kops(m.replies, span);
  point.reject_kops = kops(m.rejects, span);
  if (m.rejects > 0) point.reject_p999_ms = to_ms(m.reject_latency.p999());
  point.per_conn_bytes = cluster_per_conn_bytes(cluster);
  point.timeouts = m.timeouts;
  point.resets = w.resets;
  point.half_open_evictions = evicted;
  cluster.shutdown();

  const std::size_t loris_sessions = sessions / 2;
  std::printf("\nshape checks (loris, %zu trickling sessions):\n", loris_sessions);
  check(evicted >= loris_sessions,
        "half-open eviction reclaims the trickling connections");
  check(w.loris_evictions > 0, "loris clients observe their evictions as resets");
  check(m.replies > 0, "normal sessions keep getting replies alongside the loris hold");
  return point;
}

}  // namespace

int main() {
  if (std::getenv("IDEM_STORM_HOST") != nullptr) return run_cluster_host();
  const std::size_t fd_limit = real::StormEngine::raise_fd_limit(65536);
  const double scale = env_double("IDEM_STORM_SECONDS", 1.0);
  auto scaled = [scale](double seconds) {
    return static_cast<Duration>(seconds * scale * kSecond);
  };
  std::size_t ramp_sessions =
      static_cast<std::size_t>(env_double("IDEM_STORM_SESSIONS", 3334));
  // The ramp's cluster ends live in the forked host's own fd budget, so
  // the storm process pays 3 client fds per session plus slack; the other
  // scenarios are small enough to run cluster-in-process.
  const std::size_t max_sessions = fd_limit > 1024 ? (fd_limit - 1024) / 3 : 256;
  if (ramp_sessions > max_sessions) {
    std::printf("(fd limit %zu caps the ramp at %zu sessions, wanted %zu)\n", fd_limit,
                max_sessions, ramp_sessions);
    ramp_sessions = max_sessions;
  }
  const std::size_t flash_base =
      static_cast<std::size_t>(env_double("IDEM_STORM_FLASH_BASE", 32));
  const std::size_t stampede_sessions =
      static_cast<std::size_t>(env_double("IDEM_STORM_STAMPEDE_SESSIONS", 1000));

  std::printf("=== Connection storms: accept-path hardening at 10k sessions ===\n");
  std::printf("(3 replicas; storm driver multiplexes every session on one epoll thread;"
              " fd limit %zu)\n", fd_limit);

  std::vector<StormPoint> points;
  if (scenario_enabled("ramp")) {
    std::printf("\n--- ramp: %zu sessions -> %zu connections ---\n", ramp_sessions,
                ramp_sessions * 3);
    points.push_back(run_ramp(ramp_sessions,
                              scaled(env_double("IDEM_STORM_RAMP_SECONDS", 5.0)),
                              scaled(2.0)));
  }
  if (scenario_enabled("flash")) {
    std::printf("\n--- flash crowd: %zu -> %zu closed-loop sessions ---\n", flash_base,
                flash_base * 4);
    points.push_back(run_flash(flash_base, 4.0, scaled(2.0), scaled(3.0)));
  }
  if (scenario_enabled("stampede")) {
    std::printf("\n--- reconnect stampede: leader crash under %zu sessions ---\n",
                stampede_sessions);
    points.push_back(
        run_stampede(stampede_sessions, scaled(1.5), scaled(3.0), scaled(2.0)));
  }
  if (scenario_enabled("loris")) {
    std::printf("\n--- slow loris: half of 64 sessions trickle forever ---\n");
    points.push_back(run_loris(64, scaled(3.0)));
  }

  harness::Table table({"scenario", "sessions", "conns", "connect p50[ms]",
                        "connect p99.9[ms]", "replies[kreq/s]", "rejects[kreq/s]",
                        "reject p99.9[ms]", "B/conn"});
  for (const StormPoint& p : points) {
    table.add_row({p.name, harness::Table::fmt(std::uint64_t(p.sessions)),
                   harness::Table::fmt(std::uint64_t(p.connections)),
                   harness::Table::fmt(p.connect_p50_ms, 3),
                   harness::Table::fmt(p.connect_p999_ms, 3),
                   harness::Table::fmt(p.reply_kops),
                   harness::Table::fmt(p.reject_kops),
                   harness::Table::fmt(p.reject_p999_ms, 3),
                   harness::Table::fmt(p.per_conn_bytes, 0)});
  }
  std::printf("\n");
  table.print();

  if (!g_shape_ok) {
    std::fprintf(stderr, "fig_storm: shape check failed\n");
    return 1;
  }

  const char* path = std::getenv("IDEM_STORM_JSON");
  if (path == nullptr || *path == '\0') path = "BENCH_storm.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig_storm\",\n  \"n\": 3,\n  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const StormPoint& p = points[i];
    std::fprintf(f,
                 "    {\"scenario\": \"%s\", \"clients\": %zu, \"connections\": %zu,"
                 " \"connect_p50_ms\": %.4f, \"connect_p999_ms\": %.4f,"
                 " \"reply_kops\": %.3f, \"reject_kops\": %.3f, \"reject_p999_ms\": %.4f,"
                 " \"per_conn_bytes\": %.0f, \"timeouts\": %llu, \"resets\": %llu,"
                 " \"half_open_evictions\": %llu}%s\n",
                 p.name.c_str(), p.sessions, p.connections, p.connect_p50_ms,
                 p.connect_p999_ms, p.reply_kops, p.reject_kops, p.reject_p999_ms,
                 p.per_conn_bytes, static_cast<unsigned long long>(p.timeouts),
                 static_cast<unsigned long long>(p.resets),
                 static_cast<unsigned long long>(p.half_open_evictions),
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return 0;
}
