// Massive multiplayer online gaming (paper Section 2.3, third example).
//
// Only the replicated game service knows the authoritative positions of
// all players; clients can bridge gaps with local movement *prediction*,
// which is cheap-ish but wrong whenever someone changes direction. A
// login wave doubles the player count in seconds — the classic overload
// burst. With IDEM, clients whose state-sync requests are rejected
// switch to prediction for one tick and immediately relieve the servers;
// with a traditional protocol every client's sync just queues up and the
// whole match lags.
#include <cstdio>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "common/histogram.hpp"
#include "harness/cluster.hpp"

using namespace idem;

namespace {

struct MatchStats {
  std::uint64_t synced = 0;     ///< tick used authoritative server state
  std::uint64_t predicted = 0;  ///< tick used local movement prediction
  std::uint64_t lagged = 0;     ///< tick deadline missed entirely (visible lag)
  Histogram tick_wait;
};

class Player {
 public:
  Player(harness::Cluster& cluster, std::size_t index, MatchStats& stats)
      : cluster_(cluster), index_(index), stats_(stats) {}

  void join() {
    // Desynchronize: players start at a random point inside the tick so
    // the fleet does not fire synchronized request waves.
    Duration offset = cluster_.simulator().rng("game.join").uniform_int(0, kTick);
    cluster_.simulator().schedule_after(offset, [this] { tick(); });
  }

 private:
  static constexpr Duration kTick = 50 * kMillisecond;      // 20 ticks/s
  static constexpr Duration kTickDeadline = 30 * kMillisecond;

  void tick() {
    app::KvCommand cmd;
    cmd.op = app::KvOp::Put;
    cmd.key = "player" + std::to_string(index_);
    cmd.value = "state:" + std::to_string(frame_);
    issued_ = cluster_.simulator().now();
    cluster_.client(index_).invoke(
        cmd.encode(), [this](const consensus::Outcome& outcome) { on_outcome(outcome); });
  }

  void on_outcome(const consensus::Outcome& outcome) {
    ++frame_;
    Duration waited = outcome.completed - issued_;
    stats_.tick_wait.record(waited);
    if (outcome.kind == consensus::Outcome::Kind::Reply && waited <= kTickDeadline) {
      ++stats_.synced;
    } else if (outcome.kind == consensus::Outcome::Kind::Rejected &&
               waited <= kTickDeadline) {
      // Early rejection: run movement prediction for this frame.
      ++stats_.predicted;
    } else {
      // Late reply, late rejection, or timeout: the frame already
      // rendered without fresh data — that's user-visible lag.
      ++stats_.lagged;
    }
    // Next tick starts on the fixed cadence.
    Duration since_issue = cluster_.simulator().now() - issued_;
    Duration wait = since_issue >= kTick ? 0 : kTick - since_issue;
    cluster_.simulator().schedule_after(wait, [this] { tick(); });
  }

  harness::Cluster& cluster_;
  std::size_t index_;
  MatchStats& stats_;
  Time issued_ = 0;
  std::uint64_t frame_ = 0;
};

void report(const char* label, const MatchStats& stats) {
  std::uint64_t total = stats.synced + stats.predicted + stats.lagged;
  if (total == 0) total = 1;
  std::printf("  %-26s %7llu ticks: %5.1f%% synced, %5.1f%% predicted, %5.1f%% LAGGED"
              " | p99 wait %.1f ms\n",
              label, static_cast<unsigned long long>(total), 100.0 * stats.synced / total,
              100.0 * stats.predicted / total, 100.0 * stats.lagged / total,
              to_ms(stats.tick_wait.p99()));
}

void run_match(harness::Protocol protocol, const char* label) {
  const std::size_t base_players = 100;
  const std::size_t wave_players = 2900;  // login wave: 30x the base
  harness::ClusterConfig config;
  config.protocol = protocol;
  config.clients = base_players + wave_players;
  config.reject_threshold = 50;
  config.preload = false;
  config.idem_client.operation_timeout = 500 * kMillisecond;
  harness::Cluster cluster(config);

  MatchStats stats;
  std::vector<Player> players;
  players.reserve(config.clients);
  for (std::size_t i = 0; i < config.clients; ++i) players.emplace_back(cluster, i, stats);

  std::printf("%s:\n", label);
  for (std::size_t i = 0; i < base_players; ++i) players[i].join();
  cluster.simulator().run_for(4 * kSecond);
  report("steady match (100 players)", stats);

  stats = MatchStats{};
  for (std::size_t i = base_players; i < players.size(); ++i) players[i].join();
  cluster.simulator().run_for(6 * kSecond);
  report("login wave (3000 players)", stats);
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("== MMO match: 20 ticks/s state sync through a login wave ==\n");
  std::printf("(a tick is LAGGED when neither server state nor a rejection arrived\n"
              " within the 30 ms frame deadline)\n\n");

  run_match(harness::Protocol::Idem, "IDEM (proactive rejection)");
  run_match(harness::Protocol::Smart, "BFT-SMaRt-analog (no overload protection)");

  std::printf("IDEM keeps the match playable through the wave: overload turns into\n"
              "*predicted* frames (good enough) instead of *lagged* frames (visible\n"
              "stutter), because rejections arrive within the frame budget.\n");
  return 0;
}
