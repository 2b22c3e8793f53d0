// Live data / web frontends (paper Section 2.3, second example).
//
// Web clients (chat, newsfeeds) should mask *short* delays by showing
// slightly stale data, and show a loading indicator only for *long*
// delays. For that, the client logic must distinguish the two cases
// early. IDEM's rejection notifications deliver exactly that signal:
// instead of waiting on a timeout, the frontend knows within ~2 ms that
// this refresh won't be served and keeps showing cached data.
//
// The demo compares the user experience of IDEM and Paxos frontends
// through an overload phase, measuring how long the UI was blocked
// waiting without information.
#include <cstdio>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "common/histogram.hpp"
#include "harness/cluster.hpp"

using namespace idem;

namespace {

struct UxStats {
  std::uint64_t fresh = 0;           ///< refresh served in time
  std::uint64_t cached_informed = 0; ///< rejection -> showed cache, no spinner
  std::uint64_t spinner = 0;         ///< waited blind past the spinner deadline
  Histogram wait;                    ///< time until the UI knew what to render
};

class Frontend {
 public:
  Frontend(harness::Cluster& cluster, std::size_t index, UxStats& stats)
      : cluster_(cluster), index_(index), stats_(stats) {}

  void start() { refresh(); }

 private:
  static constexpr Duration kSpinnerDeadline = 100 * kMillisecond;

  void refresh() {
    app::KvCommand cmd;
    cmd.op = app::KvOp::Get;
    cmd.key = "feed" + std::to_string(index_ % 16);
    issued_ = cluster_.simulator().now();
    cluster_.client(index_).invoke(
        cmd.encode(), [this](const consensus::Outcome& outcome) { on_outcome(outcome); });
  }

  void on_outcome(const consensus::Outcome& outcome) {
    Duration waited = outcome.completed - issued_;
    stats_.wait.record(waited);
    Duration next = 200 * kMillisecond;  // refresh cadence
    if (outcome.kind == consensus::Outcome::Kind::Reply) {
      if (waited <= kSpinnerDeadline) {
        ++stats_.fresh;
      } else {
        ++stats_.spinner;  // user already saw a loading animation
      }
    } else {
      // Rejection: the UI *knows* and simply keeps the cached feed —
      // no spinner, no frustration. Retry a bit later.
      ++stats_.cached_informed;
      next += 100 * kMillisecond;
    }
    cluster_.simulator().schedule_after(next, [this] { refresh(); });
  }

  harness::Cluster& cluster_;
  std::size_t index_;
  UxStats& stats_;
  Time issued_ = 0;
};

UxStats run_scenario(harness::Protocol protocol, const char* label) {
  const std::size_t users = 800;  // a traffic spike far beyond capacity
  harness::ClusterConfig config;
  config.protocol = protocol;
  config.clients = users;
  config.reject_threshold = 50;
  config.preload = false;
  // Web clients would give up eventually; model a 1 s hard timeout.
  config.idem_client.operation_timeout = kSecond;
  harness::Cluster cluster(config);

  // Seed the feeds.
  for (int i = 0; i < 16; ++i) {
    app::KvCommand seed;
    seed.op = app::KvOp::Put;
    seed.key = "feed" + std::to_string(i);
    seed.value = std::string(100, 'n');
    cluster.client(0).invoke(seed.encode(), [](const consensus::Outcome&) {});
    cluster.simulator().run_while([&] { return cluster.client(0).busy(); });
  }

  UxStats stats;
  std::vector<Frontend> frontends;
  frontends.reserve(users);
  for (std::size_t i = 0; i < users; ++i) frontends.emplace_back(cluster, i, stats);
  for (auto& frontend : frontends) frontend.start();
  cluster.simulator().run_for(10 * kSecond);

  std::uint64_t total = stats.fresh + stats.cached_informed + stats.spinner;
  if (total == 0) total = 1;
  std::printf("%-10s %7llu refreshes: %5.1f%% fresh, %5.1f%% cached-but-informed,"
              " %5.1f%% spinner | know-what-to-render p99: %.1f ms\n",
              label, static_cast<unsigned long long>(total), 100.0 * stats.fresh / total,
              100.0 * stats.cached_informed / total, 100.0 * stats.spinner / total,
              to_ms(stats.wait.p99()));
  return stats;
}

}  // namespace

int main() {
  std::printf("== Live data: feed refreshes during a traffic spike (800 users) ==\n\n");
  std::printf("'spinner' = the UI waited >100 ms with no information.\n\n");

  run_scenario(harness::Protocol::Idem, "IDEM");
  run_scenario(harness::Protocol::Paxos, "Paxos");

  std::printf("\nIDEM converts almost every would-be spinner into an *informed* cache\n"
              "display: the user sees slightly stale data instead of a loading animation,\n"
              "because the service said 'not now' within milliseconds.\n");
  return 0;
}
