// storm-client: connection-storm load driver for a live IDEM cluster —
// thousands of sessions multiplexed on one epoll thread (real::StormEngine)
// instead of idem_client's one-full-client-per-session model.
//
//   storm_client --replica :7000 --replica :7001 --replica :7002
//                --sessions 5000 --ramp 5 --seconds 20
//
// Replicas must be listed in replica-id order. Closed-loop by default;
// --rate R switches each session to open-loop Poisson arrivals. Storm
// behaviors compose: --flash N --flash-after S jumps the population to N
// sessions after S seconds; --stampede-after S tears every connection
// down at S seconds (all sessions reconnect with jittered delays);
// --loris-fraction F makes that slice of sessions trickle a forever-
// unfinished frame (what a server's half-open timeout evicts).
//
// Prints one line per second (connections, replies/s, rejects/s,
// rejection-notification p99.9) and a final summary. Exit code 0 when at
// least one REPLY arrived, 1 when none did, 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "real/storm.hpp"

using namespace idem;

namespace {

struct Options {
  real::StormOptions storm;
  double seconds = 10.0;
  double ramp_seconds = 0;
  std::size_t flash_sessions = 0;
  double flash_after = 0;
  double stampede_after = 0;
  double loris_trickle_ms = 500;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --replica [HOST:]PORT [--replica ...] [options]\n"
      "  --replica ADDR       replica address, repeated in replica-id order\n"
      "  --sessions N         concurrent sessions            (default: 100)\n"
      "  --client-id-base B   first client id, keep ranges disjoint across\n"
      "                       concurrent drivers             (default: %llu)\n"
      "  --seconds S          run length in seconds          (default: 10)\n"
      "  --ramp S             spread the initial spawns over S seconds\n"
      "  --rate R             open-loop arrivals per session per second\n"
      "                       (default: 0 = closed loop)\n"
      "  --seed N             rng seed                       (default: 1)\n"
      "  --f F                tolerated faults               (default: (n-1)/2)\n"
      "  --records N          YCSB key-space size            (default: 10000)\n"
      "  --value-size B       YCSB value bytes               (default: 100)\n"
      "  --reconnect-every N  churn: reconnect a session after N completed\n"
      "                       operations                     (default: 0 = never)\n"
      "  --flash N            flash crowd: grow to N sessions mid-run\n"
      "  --flash-after S      ...after S seconds             (default: seconds/2)\n"
      "  --stampede-after S   tear every connection down at S seconds\n"
      "  --loris-fraction F   fraction of sessions in slow-loris mode\n"
      "  --loris-trickle MS   loris byte interval in ms      (default: 500)\n",
      argv0, static_cast<unsigned long long>(real::StormOptions{}.client_id_base));
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* { return cli::next_value(argc, argv, i); };
    const char* arg = argv[i];
    const char* v = nullptr;
    if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
      usage(argv[0]);
      std::exit(0);
    } else if (!std::strcmp(arg, "--replica")) {
      if ((v = value()) == nullptr) return std::nullopt;
      auto address = cli::parse_replica(argv[0], v);
      if (!address.has_value()) return std::nullopt;
      options.storm.replicas.push_back(*address);
    } else if (!std::strcmp(arg, "--sessions")) {
      if ((v = value()) == nullptr) return std::nullopt;
      options.storm.sessions = std::strtoul(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--client-id-base")) {
      if ((v = value()) == nullptr) return std::nullopt;
      options.storm.client_id_base = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--seconds")) {
      if ((v = value()) == nullptr) return std::nullopt;
      options.seconds = std::atof(v);
    } else if (!std::strcmp(arg, "--ramp")) {
      if ((v = value()) == nullptr) return std::nullopt;
      options.ramp_seconds = std::atof(v);
    } else if (!std::strcmp(arg, "--rate")) {
      if ((v = value()) == nullptr) return std::nullopt;
      options.storm.load.open_loop_rate = std::atof(v);
    } else if (!std::strcmp(arg, "--seed")) {
      if ((v = value()) == nullptr) return std::nullopt;
      options.storm.seed = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--f")) {
      if ((v = value()) == nullptr) return std::nullopt;
      options.storm.client.f = std::strtoul(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--records")) {
      if ((v = value()) == nullptr) return std::nullopt;
      options.storm.load.workload.record_count = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--value-size")) {
      if ((v = value()) == nullptr) return std::nullopt;
      options.storm.load.workload.value_size = std::strtoul(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--reconnect-every")) {
      if ((v = value()) == nullptr) return std::nullopt;
      options.storm.reconnect_every_ops = std::strtoul(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--flash")) {
      if ((v = value()) == nullptr) return std::nullopt;
      options.flash_sessions = std::strtoul(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--flash-after")) {
      if ((v = value()) == nullptr) return std::nullopt;
      options.flash_after = std::atof(v);
    } else if (!std::strcmp(arg, "--stampede-after")) {
      if ((v = value()) == nullptr) return std::nullopt;
      options.stampede_after = std::atof(v);
    } else if (!std::strcmp(arg, "--loris-fraction")) {
      if ((v = value()) == nullptr) return std::nullopt;
      options.storm.slow_loris_fraction = std::atof(v);
    } else if (!std::strcmp(arg, "--loris-trickle")) {
      if ((v = value()) == nullptr) return std::nullopt;
      options.loris_trickle_ms = std::atof(v);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], arg);
      return std::nullopt;
    }
  }
  if (options.storm.replicas.empty()) return std::nullopt;
  if (options.flash_sessions > 0 && options.flash_after <= 0) {
    options.flash_after = options.seconds / 2;
  }
  options.storm.ramp = static_cast<Duration>(options.ramp_seconds * kSecond);
  options.storm.loris_trickle = static_cast<Duration>(options.loris_trickle_ms * kMillisecond);
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Options> parsed = parse_args(argc, argv);
  if (!parsed.has_value()) {
    usage(argv[0]);
    return 2;
  }
  Options& options = *parsed;
  // 3 fds per normal session (one per replica); leave slack for the loop.
  real::StormEngine::raise_fd_limit(options.storm.sessions * 3 + 1024);

  real::StormEngine storm(options.storm);
  storm.start();

  std::printf("%8s %8s %8s %10s %10s %10s %12s\n", "t[s]", "sessions", "conns",
              "replies/s", "rejects/s", "timeouts", "rej p99.9[ms]");
  std::uint64_t total_replies = 0;
  std::uint64_t total_rejects = 0;
  std::uint64_t total_timeouts = 0;
  bool flashed = false;
  bool stampeded = false;
  const int ticks = static_cast<int>(options.seconds + 0.5);
  for (int t = 0; t < ticks; ++t) {
    storm.reset_window();
    storm.run_for(kSecond);
    const harness::RunMetrics& m = storm.metrics();
    real::StormGauges g = storm.gauges();
    total_replies += m.replies;
    total_rejects += m.rejects;
    total_timeouts += m.timeouts;
    std::printf("%8d %8zu %8zu %10llu %10llu %10llu %12.3f\n", t + 1, g.sessions,
                g.open_connections, static_cast<unsigned long long>(m.replies),
                static_cast<unsigned long long>(m.rejects),
                static_cast<unsigned long long>(m.timeouts),
                m.rejects > 0 ? to_ms(m.reject_latency.p999()) : 0.0);
    std::fflush(stdout);
    if (options.flash_sessions > 0 && !flashed && t + 1 >= options.flash_after) {
      std::printf("-- flash crowd: %zu -> %zu sessions --\n", g.sessions,
                  options.flash_sessions);
      storm.set_target_sessions(options.flash_sessions);
      flashed = true;
    }
    if (options.stampede_after > 0 && !stampeded && t + 1 >= options.stampede_after) {
      std::printf("-- stampede: reconnecting every session --\n");
      storm.reconnect_all();
      stampeded = true;
    }
  }

  std::printf("\ntotal: %llu replies, %llu rejects, %llu timeouts over %ds\n",
              static_cast<unsigned long long>(total_replies),
              static_cast<unsigned long long>(total_rejects),
              static_cast<unsigned long long>(total_timeouts), ticks);
  return total_replies > 0 ? 0 : 1;
}
