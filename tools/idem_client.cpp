// idem-client: wall-clock YCSB load generator for a live IDEM cluster
// (idem_server processes, or anything speaking the rpc framing).
//
//   idem_client --replica :7000 --replica :7001 --replica :7002
//               --clients 8 --seconds 5
//
// Replicas must be listed in replica-id order. Closed-loop by default;
// --rate R switches to open-loop Poisson arrivals (R ops/s per client).
//
// Against a sharded deployment, --shards M splits the --replica list into
// M equal contiguous groups (group 0 first) and every logical client
// becomes a ShardRouter: keys route by hash against the shard map
// (uniform over M groups unless --map-file supplies one) and WrongShard
// rejects are followed transparently, so a stale map costs a redirect
// hop, not an error.
//
// Prints throughput, latency percentiles and rejection counts; exit code
// 0 when at least one operation succeeded, 1 when none did, 2 on usage
// errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "obs/chrome_trace.hpp"
#include "shard/real_clients.hpp"
#include "shard/shard_map.hpp"

using namespace idem;

namespace {

struct Options {
  std::vector<rpc::PeerAddress> replicas;
  std::size_t clients = 4;
  std::uint64_t client_id_base = 0;
  double seconds = 5.0;
  double warmup = 0.5;
  double rate = 0;  ///< per-client open-loop ops/s; 0 = closed loop
  std::uint64_t seed = 1;
  std::size_t f = 0;  ///< 0 = derive (n-1)/2
  std::uint64_t records = 10'000;
  std::size_t value_size = 100;
  std::string workload = "a";
  std::string trace_out;
  std::size_t shards = 0;  ///< 0 = unsharded
  std::string map_file;
  /// Closed-loop rejection backoff window in ms (paper Section 7.1);
  /// backoff_max_ms = 0 disables the wait entirely.
  double backoff_min_ms = 50;
  double backoff_max_ms = 100;
  /// Per-operation latency budget in ms (0 = none) and uniform +/- jitter.
  double deadline_ms = 0;
  double deadline_jitter_ms = 0;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --replica [HOST:]PORT [--replica ...] [options]\n"
      "  --replica ADDR     replica address, repeated in replica-id order\n"
      "                     (with --shards: group 0's replicas, then group 1's, ...)\n"
      "  --clients N        concurrent clients            (default: 4)\n"
      "  --client-id-base B first client id, keep ranges disjoint across\n"
      "                     concurrent generators         (default: 0)\n"
      "  --seconds S        measured seconds              (default: 5)\n"
      "  --warmup S         warm-up seconds               (default: 0.5)\n"
      "  --rate R           open-loop arrivals per client per second\n"
      "                     (default: 0 = closed loop)\n"
      "  --seed N           rng seed                      (default: 1)\n"
      "  --f F              tolerated faults              (default: (n-1)/2)\n"
      "  --records N        YCSB key-space size           (default: 10000)\n"
      "  --value-size B     YCSB value bytes              (default: 100)\n"
      "  --workload W       a | b | c                     (default: a)\n"
      "  --shards M         route across M replication groups; the --replica\n"
      "                     list is split into M equal contiguous groups\n"
      "  --map-file F       initial shard map JSON (see idem_server --shard-map;\n"
      "                     default: uniform hash ranges over M groups)\n"
      "  --deadline-ms MS   latency budget stamped on every operation; the\n"
      "                     cluster may reject budgets it cannot meet, and\n"
      "                     late replies are counted as deadline misses\n"
      "  --deadline-jitter MS\n"
      "                     uniform +/- jitter on each operation's budget\n"
      "  --backoff-min MS   closed-loop wait after a reject/timeout,\n"
      "                     lower bound in ms             (default: 50)\n"
      "  --backoff-max MS   upper bound in ms; 0 disables (default: 100)\n"
      "  --trace-out F      write client-side Chrome/Perfetto trace to F\n"
      "                     (unsharded runs only)\n",
      argv0);
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    auto number = [&](auto& out, auto... range) {
      return cli::next_number(argc, argv, i, out, range...);
    };
    if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
      usage(argv[0]);
      std::exit(0);
    } else if (!std::strcmp(arg, "--replica")) {
      if ((v = cli::next_value(argc, argv, i)) == nullptr) return std::nullopt;
      auto address = cli::parse_replica(argv[0], v);
      if (!address.has_value()) return std::nullopt;
      options.replicas.push_back(*address);
    } else if (!std::strcmp(arg, "--clients")) {
      if (!number(options.clients, 1)) return std::nullopt;
    } else if (!std::strcmp(arg, "--client-id-base")) {
      if (!number(options.client_id_base)) return std::nullopt;
    } else if (!std::strcmp(arg, "--seconds")) {
      if (!number(options.seconds, 0.0)) return std::nullopt;
    } else if (!std::strcmp(arg, "--warmup")) {
      if (!number(options.warmup, 0.0)) return std::nullopt;
    } else if (!std::strcmp(arg, "--rate")) {
      if (!number(options.rate, 0.0)) return std::nullopt;
    } else if (!std::strcmp(arg, "--seed")) {
      if (!number(options.seed)) return std::nullopt;
    } else if (!std::strcmp(arg, "--f")) {
      if (!number(options.f)) return std::nullopt;
    } else if (!std::strcmp(arg, "--records")) {
      if (!number(options.records, 1)) return std::nullopt;
    } else if (!std::strcmp(arg, "--value-size")) {
      if (!number(options.value_size)) return std::nullopt;
    } else if (!std::strcmp(arg, "--workload")) {
      if ((v = cli::next_value(argc, argv, i)) == nullptr) return std::nullopt;
      options.workload = v;
    } else if (!std::strcmp(arg, "--shards")) {
      if (!number(options.shards)) return std::nullopt;
    } else if (!std::strcmp(arg, "--map-file")) {
      if ((v = cli::next_value(argc, argv, i)) == nullptr) return std::nullopt;
      options.map_file = v;
    } else if (!std::strcmp(arg, "--deadline-ms")) {
      if (!number(options.deadline_ms, 0.0)) return std::nullopt;
    } else if (!std::strcmp(arg, "--deadline-jitter")) {
      if (!number(options.deadline_jitter_ms, 0.0)) return std::nullopt;
    } else if (!std::strcmp(arg, "--backoff-min")) {
      if (!number(options.backoff_min_ms, 0.0)) return std::nullopt;
    } else if (!std::strcmp(arg, "--backoff-max")) {
      if (!number(options.backoff_max_ms, 0.0)) return std::nullopt;
    } else if (!std::strcmp(arg, "--trace-out")) {
      if ((v = cli::next_value(argc, argv, i)) == nullptr) return std::nullopt;
      options.trace_out = v;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg);
      return std::nullopt;
    }
  }
  if (options.replicas.empty()) {
    if (argc > 1) std::fprintf(stderr, "%s: at least one --replica is required\n", argv[0]);
    return std::nullopt;
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = parse_args(argc, argv);
  if (!parsed.has_value()) {
    usage(argv[0]);
    return 2;
  }
  const Options& options = *parsed;

  auto workload = cli::workload_by_name(options.workload);
  if (!workload.has_value()) {
    std::fprintf(stderr, "%s: unknown workload '%s'\n", argv[0], options.workload.c_str());
    usage(argv[0]);
    return 2;
  }
  workload->record_count = options.records;
  workload->value_size = options.value_size;

  if (options.map_file.empty() == false && options.shards == 0) {
    std::fprintf(stderr, "%s: --map-file requires --shards\n", argv[0]);
    return 2;
  }
  // Every group's client shares the logical client's id, so their request
  // lifecycles would collide in one trace.
  if (!options.trace_out.empty() && options.shards > 0) {
    std::fprintf(stderr, "%s: --trace-out is not supported with --shards\n", argv[0]);
    return 2;
  }
  const std::size_t groups = options.shards > 0 ? options.shards : 1;
  if (options.replicas.size() % groups != 0) {
    std::fprintf(stderr, "%s: %zu replicas do not split into %zu equal groups\n", argv[0],
                 options.replicas.size(), groups);
    return 2;
  }
  const std::size_t n = options.replicas.size() / groups;

  shard::RealClientsConfig hosted;
  hosted.clients = options.clients;
  hosted.client_id_base = options.client_id_base;
  hosted.seed = options.seed;
  for (std::size_t g = 0; g < groups; ++g) {
    hosted.groups.emplace_back(options.replicas.begin() + g * n,
                               options.replicas.begin() + (g + 1) * n);
  }
  hosted.client.f = options.f;
  if (options.shards > 0) {
    hosted.map = shard::ShardMap::uniform(options.shards);
    if (!options.map_file.empty()) {
      auto text = cli::read_file(argv[0], options.map_file);
      if (!text.has_value()) return 2;
      try {
        hosted.map = shard::ShardMap::parse(*text);
      } catch (const json::ParseError& e) {
        std::fprintf(stderr, "%s: bad shard map %s: %s\n", argv[0], options.map_file.c_str(),
                     e.what());
        return 2;
      }
      if (hosted.map->group_count() > options.shards) {
        std::fprintf(stderr, "%s: map references group %zu but only %zu groups given\n",
                     argv[0], hosted.map->group_count() - 1, options.shards);
        return 2;
      }
    }
  }
  std::optional<obs::TraceRecorder> recorder;
  if (!options.trace_out.empty()) hosted.client.trace = &recorder.emplace(1u << 16);

  harness::LoadConfig load;
  load.warmup = static_cast<Duration>(options.warmup * kSecond);
  load.measure = static_cast<Duration>(options.seconds * kSecond);
  load.open_loop_rate = options.rate;
  load.workload = *workload;
  load.backoff_min = static_cast<Duration>(options.backoff_min_ms * kMillisecond);
  load.backoff_max = static_cast<Duration>(options.backoff_max_ms * kMillisecond);
  load.request_deadline = static_cast<Duration>(options.deadline_ms * kMillisecond);
  load.deadline_jitter = static_cast<Duration>(options.deadline_jitter_ms * kMillisecond);

  if (hosted.map.has_value()) {
    std::printf("idem_client: %zu %s clients -> %zu groups x %zu replicas"
                " (map epoch %llu), %.1f s (+%.1f s warmup)\n",
                options.clients, options.rate > 0 ? "open-loop" : "closed-loop", groups, n,
                static_cast<unsigned long long>(hosted.map->epoch()), options.seconds,
                options.warmup);
  } else {
    std::printf("idem_client: %zu %s clients -> %zu replicas, %.1f s (+%.1f s warmup)\n",
                options.clients, options.rate > 0 ? "open-loop" : "closed-loop", n,
                options.seconds, options.warmup);
  }
  std::fflush(stdout);

  shard::RealClients clients(hosted);
  const harness::RunMetrics stats = clients.drive(load);
  cli::print_load_report(stats);
  if (hosted.map.has_value()) {
    const shard::RouterStats router = clients.router_stats();
    std::printf("  routing    : %llu redirects, %llu map refreshes, %llu dropped"
                " at the hop budget\n",
                static_cast<unsigned long long>(router.redirects),
                static_cast<unsigned long long>(router.map_refreshes),
                static_cast<unsigned long long>(router.redirect_drops));
  }

  if (!options.trace_out.empty()) {
    if (std::FILE* f = std::fopen(options.trace_out.c_str(), "w")) {
      // The anchor lets trace_merge stitch this export onto the same
      // wall-clock timeline as the servers' --trace-out documents.
      const std::vector<obs::TraceEvent> trace = recorder->snapshot();
      obs::ChromeTraceMeta meta{"idem_client c" + std::to_string(options.client_id_base),
                                rpc::realtime_anchor_ns(hosted.epoch)};
      obs::write_chrome_trace(f, trace, meta);
      std::fclose(f);
      std::printf("  trace      : wrote %s (%zu events)\n", options.trace_out.c_str(),
                  trace.size());
    } else {
      std::fprintf(stderr, "%s: cannot write %s\n", argv[0], options.trace_out.c_str());
    }
  }
  return stats.replies > 0 ? 0 : 1;
}
