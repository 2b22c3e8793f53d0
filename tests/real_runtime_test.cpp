// Unit tests for the real deployment runtime: thread lifecycle, cross-
// thread posting, the metrics ticker on a wall-clock loop, trace merging,
// and the in-process RealCluster harness (including crash injection).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "consensus/addresses.hpp"
#include "consensus/messages.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/ticker.hpp"
#include "obs/trace.hpp"
#include "real/cluster.hpp"
#include "real/runtime.hpp"
#include "rpc/http_admin.hpp"
#include "shard/real_clients.hpp"
#include "test_util.hpp"

namespace idem {
namespace {

using shard::clients_of;

harness::RunMetrics drive_for(const shard::RealClientsConfig& clients, Duration span) {
  harness::LoadConfig load;
  load.measure = span;
  return shard::RealClients(clients).drive(load);
}

/// Value of the Prometheus line `series` in a /metrics response (-1 when
/// the series is absent).
double series_value(const std::string& response, const std::string& series) {
  const std::size_t at = response.find("\n" + series + " ");
  return at == std::string::npos ? -1.0 : std::atof(response.c_str() + at + series.size() + 2);
}

/// A stand-in replica that rejects every REQUEST, or stays silent.
class FakeReplica final : public sim::Node {
 public:
  FakeReplica(sim::Runtime& runtime, sim::Transport& net, ReplicaId id, bool rejects)
      : sim::Node(runtime, net, consensus::replica_address(id), sim::NodeKind::Replica),
        rejects_(rejects) {}

 protected:
  void on_message(sim::NodeId from, const sim::Payload& message) override {
    const auto* request = dynamic_cast<const msg::Request*>(&message);
    if (rejects_ && request != nullptr) send(from, std::make_shared<const msg::Reject>(request->id));
  }

 private:
  bool rejects_;
};

// ---------------------------------------------------------------------------
// RealClients
// ---------------------------------------------------------------------------

TEST(RealClientsTest, ExplicitFaultCountIsKept) {
  // Five replicas: 0-2 reject every REQUEST, 3-4 stay silent. With the
  // explicit f = 1 a pessimistic client gives up at n - f = 4 rejects, so
  // three must not end an operation. Deriving f = (n - 1) / 2 = 2 over
  // the caller's choice would end every operation after three.
  rpc::EventLoop replica_loop(3);
  rpc::TcpTransport transport(replica_loop);
  shard::RealClientsConfig config;
  config.clients = 1;
  config.client.f = 1;
  config.client.strategy = core::IdemClientConfig::Strategy::Pessimistic;
  config.groups.emplace_back();
  std::vector<std::unique_ptr<FakeReplica>> replicas;
  for (std::uint32_t i = 0; i < 5; ++i) {
    replicas.push_back(
        std::make_unique<FakeReplica>(replica_loop, transport, ReplicaId{i}, /*rejects=*/i < 3));
    config.groups[0].push_back(
        {"127.0.0.1", transport.port_of(consensus::replica_address(ReplicaId{i}))});
  }
  std::thread replica_thread([&replica_loop] { replica_loop.run(); });
  const harness::RunMetrics stats = drive_for(config, 300 * kMillisecond);
  replica_loop.stop();
  replica_thread.join();

  EXPECT_GT(stats.issued, 0u);
  EXPECT_EQ(stats.rejects, 0u);
}

// ---------------------------------------------------------------------------
// RealRuntime
// ---------------------------------------------------------------------------

TEST(RealRuntimeTest, StartStopIsIdempotentAndRestartable) {
  real::RealRuntime runtime;
  EXPECT_FALSE(runtime.running());
  runtime.start();
  EXPECT_TRUE(runtime.running());
  runtime.start();  // no-op
  runtime.stop();
  EXPECT_FALSE(runtime.running());
  runtime.stop();  // no-op
  runtime.start();
  EXPECT_TRUE(runtime.running());
  runtime.stop();
}

TEST(RealRuntimeTest, PostedTasksRunOnTheLoopThread) {
  real::RealRuntime runtime;
  runtime.start();
  std::atomic<bool> ran{false};
  std::thread::id loop_thread;
  runtime.post([&] {
    loop_thread = std::this_thread::get_id();
    ran.store(true);
  });
  // call() round-trips through the loop, so the post above has run by now.
  std::thread::id observed = runtime.call([] { return std::this_thread::get_id(); });
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(observed, loop_thread);
  EXPECT_NE(observed, std::this_thread::get_id());
  runtime.stop();
}

TEST(RealRuntimeTest, CallReturnsValuesAndRunsInlineWhenStopped) {
  real::RealRuntime runtime;
  // Not running: executes inline on this thread.
  EXPECT_EQ(runtime.call([] { return 41 + 1; }), 42);
  runtime.start();
  EXPECT_EQ(runtime.call([] { return std::string("loop"); }), "loop");
  runtime.stop();
  EXPECT_EQ(runtime.call([] { return 7; }), 7);
}

TEST(RealRuntimeTest, TasksPostedBeforeStartRunAfterStart) {
  real::RealRuntime runtime;
  std::atomic<int> value{0};
  runtime.post([&] { value.store(13); });
  runtime.start();
  runtime.call([] {});  // barrier
  EXPECT_EQ(value.load(), 13);
  runtime.stop();
}

// ---------------------------------------------------------------------------
// MetricsTicker on a wall-clock runtime
// ---------------------------------------------------------------------------

TEST(MetricsTickerTest, SamplesPeriodicallyOnEventLoop) {
  rpc::EventLoop loop;
  obs::MetricsRegistry registry;
  int gauge_value = 3;
  registry.add_gauge("g", [&] { return static_cast<double>(gauge_value); });
  obs::MetricsTicker ticker(loop, registry, 10 * kMillisecond);
  ticker.start();
  EXPECT_TRUE(ticker.running());
  loop.run_for(105 * kMillisecond);
  ticker.stop();
  EXPECT_FALSE(ticker.running());
  // ~10 ticks expected; demand at least half to stay robust under load.
  EXPECT_GE(registry.rows(), 5u);
  EXPECT_EQ(registry.value(0, 0), 3.0);
  // Timestamps are monotone wall-clock nanoseconds.
  for (std::size_t row = 1; row < registry.rows(); ++row) {
    EXPECT_GT(registry.row_time(row), registry.row_time(row - 1));
  }

  // Stopped ticker stops sampling.
  const std::size_t rows_after_stop = registry.rows();
  loop.run_for(30 * kMillisecond);
  EXPECT_EQ(registry.rows(), rows_after_stop);
}

TEST(MetricsTickerTest, ZeroIntervalNeverStarts) {
  rpc::EventLoop loop;
  obs::MetricsRegistry registry;
  obs::MetricsTicker ticker(loop, registry, 0);
  ticker.start();
  EXPECT_FALSE(ticker.running());
}

// ---------------------------------------------------------------------------
// Trace merging
// ---------------------------------------------------------------------------

TEST(TraceMergeTest, MergesSnapshotsByTimestamp) {
  obs::TraceRecorder a(16), b(16);
  a.record(10, obs::TraceEventKind::RequestIssued, 1'000'000,
           RequestId{ClientId{1}, OpNum{1}});
  a.record(30, obs::TraceEventKind::RequestOutcome, 1'000'000,
           RequestId{ClientId{1}, OpNum{1}});
  b.record(20, obs::TraceEventKind::AcceptVerdict, 0, RequestId{ClientId{1}, OpNum{1}}, 1);

  auto merged = obs::merge_trace_snapshots({a.snapshot(), b.snapshot()});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].at, 10);
  EXPECT_EQ(merged[1].at, 20);
  EXPECT_EQ(merged[2].at, 30);
  EXPECT_EQ(merged[1].kind, obs::TraceEventKind::AcceptVerdict);
}

TEST(TraceMergeTest, TiesKeepPerRecorderOrder) {
  obs::TraceRecorder a(8);
  a.record(5, obs::TraceEventKind::RequestIssued, 7, RequestId{ClientId{1}, OpNum{1}});
  a.record(5, obs::TraceEventKind::RequestOutcome, 7, RequestId{ClientId{1}, OpNum{1}});
  auto merged = obs::merge_trace_snapshots({a.snapshot()});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].kind, obs::TraceEventKind::RequestIssued);
  EXPECT_EQ(merged[1].kind, obs::TraceEventKind::RequestOutcome);
}

// ---------------------------------------------------------------------------
// RealCluster
// ---------------------------------------------------------------------------

TEST(RealClusterTest, StartsWiresAndShutsDownCleanly) {
  real::RealClusterConfig config;
  config.n = 3;
  config.f = 1;
  config.seed = 11;
  real::RealCluster cluster(config);

  ASSERT_EQ(cluster.n(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_GT(cluster.port_of(i), 0);
  auto addresses = cluster.replica_addresses();
  ASSERT_EQ(addresses.size(), 3u);
  EXPECT_EQ(addresses[1].port, cluster.port_of(1));

  cluster.start();
  // View 0: replica 0 leads from the start.
  EXPECT_EQ(cluster.leader_index(), 0u);
  core::ReplicaStats stats = cluster.replica_stats(0);
  EXPECT_EQ(stats.requests_received, 0u);
  cluster.shutdown();
  cluster.shutdown();  // idempotent
}

TEST(RealClusterTest, ServesRequestsAndCountsThem) {
  real::RealClusterConfig config;
  config.n = 3;
  config.f = 1;
  config.seed = 23;
  real::RealCluster cluster(config);
  cluster.start();

  harness::RunMetrics stats = drive_for(clients_of(cluster, 2, 23), 400 * kMillisecond);

  EXPECT_GT(stats.replies, 0u);
  EXPECT_EQ(stats.malformed, 0u);
  // Every replica saw the multicast REQUESTs and executed operations.
  for (std::size_t i = 0; i < 3; ++i) {
    core::ReplicaStats replica = cluster.replica_stats(i);
    EXPECT_GT(replica.requests_received, 0u) << "replica " << i;
    EXPECT_GT(replica.executed, 0u) << "replica " << i;
  }
  cluster.shutdown();
}

TEST(RealClusterTest, CrashedFollowerLeavesQuorumServing) {
  real::RealClusterConfig config;
  config.n = 3;
  config.f = 1;
  config.seed = 31;
  real::RealCluster cluster(config);
  cluster.start();

  cluster.crash_replica(2);
  EXPECT_TRUE(cluster.crashed(2));
  EXPECT_EQ(cluster.port_of(2), 0);
  EXPECT_EQ(cluster.leader_index(), 0u);

  harness::RunMetrics stats = drive_for(clients_of(cluster, 2, 31), 500 * kMillisecond);

  // n - f = 2 live replicas still form a quorum.
  EXPECT_GT(stats.replies, 0u);
  cluster.shutdown();
}

TEST(RealClusterTest, LeaderCrashTriggersViewChange) {
  real::RealClusterConfig config;
  config.n = 3;
  config.f = 1;
  config.seed = 37;
  config.idem.viewchange_timeout = 250 * kMillisecond;
  real::RealCluster cluster(config);
  cluster.start();
  ASSERT_EQ(cluster.leader_index(), 0u);

  cluster.crash_replica(0);

  // Drive load so the survivors notice missing progress; the view change
  // needs outstanding work plus the 250 ms progress timeout.
  shard::RealClientsConfig clients = clients_of(cluster, 2, 37);
  clients.client.retry_interval = 200 * kMillisecond;
  harness::RunMetrics stats = drive_for(clients, 1500 * kMillisecond);

  const std::size_t leader = cluster.leader_index();
  EXPECT_EQ(leader, 1u);
  EXPECT_GT(cluster.replica_stats(1).view_changes, 0u);
  EXPECT_GT(stats.replies, 0u);  // service resumed after the view change
  cluster.shutdown();
}

TEST(RealClusterTest, MetricsCountTransportSheds) {
  // The transport sheds connections past its cap before any replica sees
  // them; the admin must count those sheds under their reject reason.
  real::RealClusterConfig config;
  config.seed = 41;
  config.admin = true;
  config.transport.max_inbound_connections = 4;
  real::RealCluster cluster(config);
  cluster.start();

  std::vector<int> fds;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cluster.port_of(0));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (int i = 0; i < 12; ++i) {
    fds.push_back(::socket(AF_INET, SOCK_STREAM, 0));
    ASSERT_EQ(::connect(fds.back(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  // Replica 0's loop accepts and sheds asynchronously: poll until a scrape
  // and the transports agree on a nonzero count.
  std::string metrics;
  double served = -1;
  std::uint64_t sheds = 0;
  for (int attempt = 0; attempt < 100 && (sheds == 0 || served != sheds); ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    metrics = rpc::http_exchange(cluster.admin_port(), "GET /metrics HTTP/1.0\r\n\r\n");
    served = series_value(metrics, "idem_rejects_total{reason=\"connection-limit\"}");
    sheds = 0;
    for (std::size_t i = 0; i < cluster.n(); ++i) {
      sheds += cluster.transport_stats(i).connection_limit_sheds;
    }
  }
  EXPECT_GE(sheds, 1u);
  EXPECT_EQ(served, static_cast<double>(sheds));
  EXPECT_GE(series_value(metrics, "idem_tcp_messages_sent_total"), 0.0);
  // Every member's loop accounting sits beside its transport's.
  EXPECT_GT(series_value(metrics, "idem_loop_iterations_total"), 0.0);
  EXPECT_GT(series_value(metrics, "idem_loop_busy_ns_total"), 0.0);
  EXPECT_GE(series_value(metrics, "idem_loop_sleeps_total"), 0.0);
  EXPECT_GE(series_value(metrics, "idem_loop_spin_ns_total"), 0.0);
  for (int fd : fds) ::close(fd);
  cluster.shutdown();
}

TEST(RealClusterTest, AdminServesThroughALeaderCrash) {
  // One thread scrapes /metrics and /stats while load runs and the leader
  // crashes: the admin has a loop of its own, and a crashed member keeps
  // contributing its last read.
  real::RealClusterConfig config;
  config.seed = 43;
  config.admin = true;
  config.idem.viewchange_timeout = 250 * kMillisecond;
  real::RealCluster cluster(config);
  cluster.start();
  const std::uint16_t port = cluster.admin_port();
  ASSERT_NE(port, 0);

  std::atomic<bool> crashed{false};
  std::atomic<bool> done{false};
  int scrapes_after_crash = 0;
  int failures_after_crash = 0;
  double replies_seen = 0;
  bool replies_decreased = false;
  std::thread scraper([&] {
    while (!done.load()) {
      const bool after_crash = crashed.load();
      const std::string metrics = rpc::http_exchange(port, "GET /metrics HTTP/1.0\r\n\r\n");
      const std::string stats = rpc::http_exchange(port, "GET /stats HTTP/1.0\r\n\r\n");
      if (after_crash) {
        ++scrapes_after_crash;
        if (metrics.rfind("HTTP/1.0 200", 0) != 0 || stats.rfind("HTTP/1.0 200", 0) != 0) {
          ++failures_after_crash;
        }
      }
      const double replies = series_value(metrics, "idem_replies_total");
      replies_decreased |= replies < replies_seen;
      replies_seen = std::max(replies_seen, replies);
    }
  });

  shard::RealClientsConfig clients = clients_of(cluster, 2, 43);
  clients.client.retry_interval = 200 * kMillisecond;
  harness::RunMetrics stats;
  std::thread loader([&] { stats = drive_for(clients, 1500 * kMillisecond); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  cluster.crash_replica(0);
  crashed.store(true);
  loader.join();
  done.store(true);
  scraper.join();

  EXPECT_GT(scrapes_after_crash, 0);
  EXPECT_EQ(failures_after_crash, 0);
  EXPECT_FALSE(replies_decreased);
  EXPECT_GT(replies_seen, 0.0);
  EXPECT_GT(stats.replies, 0u);
  // A survivor moved to a higher view; the dead leader is marked crashed
  // and keeps its totals, but no longer reports itself leader.
  const std::string response = rpc::http_exchange(port, "GET /stats HTTP/1.0\r\n\r\n");
  const json::Value doc = json::Value::parse(response.substr(response.find("\r\n\r\n") + 4));
  std::uint64_t survivor_view = 0;
  for (const json::Value& member : doc.at("members").as_array()) {
    if (member.at("member").as_string() == "r0") {
      EXPECT_TRUE(member.contains("crashed")) << response;
      EXPECT_FALSE(member.contains("leader")) << response;
      EXPECT_GT(member.at("requests_received").as_uint(), 0u) << response;
      continue;
    }
    EXPECT_FALSE(member.contains("crashed")) << response;
    survivor_view = std::max(survivor_view, member.at("view").as_uint());
  }
  EXPECT_GT(survivor_view, 0u) << response;
  cluster.shutdown();
}

}  // namespace
}  // namespace idem
