// Storm-engine tests: each connection-storm behavior (ramp, flash crowd,
// reconnect stampede, slow loris, churn) at a scale that finishes in a
// few seconds against an in-process RealCluster. bench/fig_storm.cpp runs
// the same scenarios at 10k connections; these pin the mechanics.
#include <gtest/gtest.h>

#include <cstddef>

#include "common/time.hpp"
#include "harness/metrics.hpp"
#include "real/cluster.hpp"
#include "real/storm.hpp"

namespace idem {
namespace {

real::RealClusterConfig small_cluster(std::uint64_t seed) {
  real::RealClusterConfig config;
  config.n = 3;
  config.f = 1;
  config.reject_threshold = 24;
  config.seed = seed;
  config.expected_clients = 64;
  config.preload = true;
  config.workload.record_count = 200;
  config.transport.read_buffer_bytes = 1024;
  return config;
}

real::StormOptions storm_options(real::RealCluster& cluster, std::size_t sessions,
                                 std::uint64_t seed) {
  real::StormOptions options;
  options.replicas = cluster.replica_addresses();
  options.sessions = sessions;
  options.seed = seed;
  options.load.workload = cluster.config().workload;
  options.epoch = cluster.epoch();
  return options;
}

TEST(StormTest, RampEstablishesTheFullPopulation) {
  real::RealClusterConfig config = small_cluster(21);
  real::RealCluster cluster(config);
  cluster.start();

  real::StormOptions options = storm_options(cluster, 32, 21);
  options.ramp = 300 * kMillisecond;
  options.load.open_loop_rate = 1.0;  // open loop, light
  real::StormEngine storm(options);
  storm.start();
  storm.run_for(900 * kMillisecond);

  real::StormGauges gauges = storm.gauges();
  EXPECT_EQ(gauges.sessions, 32u);
  EXPECT_EQ(gauges.open_connections, 32u * 3);  // one conn per replica
  EXPECT_GE(storm.window().connects, 32u * 3);
  EXPECT_GT(storm.window().connect_latency.count(), 0u);
  EXPECT_EQ(storm.window().connect_failures, 0u);
  cluster.shutdown();
}

TEST(StormTest, ClosedLoopSessionsGetRepliesAndTheWindowResets) {
  real::RealClusterConfig config = small_cluster(22);
  real::RealCluster cluster(config);
  cluster.start();

  real::StormOptions options = storm_options(cluster, 8, 22);
  real::StormEngine storm(options);
  storm.start();
  storm.run_for(600 * kMillisecond);

  const harness::RunMetrics& metrics = storm.metrics();
  EXPECT_GT(metrics.issued, 0u);
  EXPECT_GT(metrics.replies, 0u);
  EXPECT_GT(metrics.reply_latency.count(), 0u);

  storm.reset_window();
  EXPECT_EQ(storm.metrics().replies, 0u);
  EXPECT_EQ(storm.window().connect_latency.count(), 0u);
  // Sessions stay live across a window reset and keep completing work.
  storm.run_for(400 * kMillisecond);
  EXPECT_GT(storm.metrics().replies, 0u);
  cluster.shutdown();
}

TEST(StormTest, FlashCrowdGrowsAndShrinksThePopulation) {
  real::RealClusterConfig config = small_cluster(23);
  real::RealCluster cluster(config);
  cluster.start();

  real::StormOptions options = storm_options(cluster, 8, 23);
  real::StormEngine storm(options);
  storm.start();
  storm.run_for(400 * kMillisecond);
  EXPECT_EQ(storm.gauges().sessions, 8u);

  storm.set_target_sessions(48);  // flash crowd
  storm.run_for(600 * kMillisecond);
  EXPECT_EQ(storm.gauges().sessions, 48u);
  EXPECT_EQ(storm.gauges().open_connections, 48u * 3);

  storm.set_target_sessions(4);  // crowd leaves (newest sessions die first)
  storm.run_for(300 * kMillisecond);
  EXPECT_EQ(storm.gauges().sessions, 4u);
  EXPECT_EQ(storm.gauges().open_connections, 4u * 3);
  cluster.shutdown();
}

TEST(StormTest, OverloadedCrowdSeesDefinitiveRejections) {
  real::RealClusterConfig config = small_cluster(24);
  config.reject_threshold = 8;  // tiny r_max: rejection engages early
  real::RealCluster cluster(config);
  cluster.start();

  real::StormOptions options = storm_options(cluster, 48, 24);
  real::StormEngine storm(options);
  storm.start();
  storm.run_for(1200 * kMillisecond);

  const harness::RunMetrics& metrics = storm.metrics();
  EXPECT_GT(metrics.replies, 0u);
  // 48 closed-loop clients against r_max = 8 must overflow the active
  // window; every overflow is a definitive rejection (n distinct REJECTs)
  // with a measured notification latency.
  EXPECT_GT(metrics.rejects, 0u);
  EXPECT_GT(metrics.reject_latency.count(), 0u);
  EXPECT_GT(metrics.reject_latency.p999(), 0);
  cluster.shutdown();
}

TEST(StormTest, LeaderCrashStampedeReconnectsAndRecovers) {
  real::RealClusterConfig config = small_cluster(25);
  // Survivors need outstanding load plus this progress timeout to elect a
  // new leader (same recipe as RealClusterTest.LeaderCrashTriggersViewChange).
  config.idem.viewchange_timeout = 250 * kMillisecond;
  real::RealCluster cluster(config);
  cluster.start();

  real::StormOptions options = storm_options(cluster, 24, 25);
  options.load.open_loop_rate = 4.0;
  real::StormEngine storm(options);
  storm.start();
  storm.run_for(700 * kMillisecond);

  const std::size_t leader = cluster.leader_index();
  ASSERT_LT(leader, cluster.n());
  cluster.crash_replica(leader);
  storm.reset_window();
  storm.run_for(2 * kSecond);

  const real::StormWindow& window = storm.window();
  // Every session lost an established connection (the stampede trigger)
  // and re-dialed the survivors after its jittered delay.
  EXPECT_GE(window.resets, 24u);
  EXPECT_GE(window.connects, 24u);
  storm.reset_window();
  storm.run_for(1500 * kMillisecond);
  EXPECT_GT(storm.metrics().replies, 0u);  // view change completed
  // Two survivors reachable, the crashed leader's conn stays dark.
  EXPECT_GE(storm.gauges().open_connections, 24u * 2);
  cluster.shutdown();
}

TEST(StormTest, SlowLorisIsEvictedByTheHalfOpenTimeout) {
  real::RealClusterConfig config = small_cluster(26);
  config.transport.half_open_timeout = 200 * kMillisecond;
  real::RealCluster cluster(config);
  cluster.start();

  real::StormOptions options = storm_options(cluster, 8, 26);
  options.slow_loris_fraction = 1.0;  // the whole population trickles
  options.loris_trickle = 100 * kMillisecond;
  real::StormEngine storm(options);
  storm.start();
  storm.run_for(1500 * kMillisecond);

  std::uint64_t evicted = 0;
  for (std::size_t i = 0; i < cluster.n(); ++i) {
    evicted += cluster.transport_stats(i).half_open_evictions;
  }
  EXPECT_GE(evicted, 8u);
  EXPECT_GT(storm.window().loris_evictions, 0u);
  cluster.shutdown();
}

TEST(StormTest, ReconnectChurnCyclesConnections) {
  real::RealClusterConfig config = small_cluster(27);
  real::RealCluster cluster(config);
  cluster.start();

  real::StormOptions options = storm_options(cluster, 6, 27);
  options.reconnect_every_ops = 2;
  options.reconnect_delay_min = 5 * kMillisecond;
  options.reconnect_delay_max = 20 * kMillisecond;
  real::StormEngine storm(options);
  storm.start();
  storm.run_for(1200 * kMillisecond);

  // 6 sessions x 3 replicas = 18 connections per cycle; churn every 2 ops
  // must cycle each session at least 10 times. A request sent while its
  // session waits to reconnect goes out on the new connections; waiting
  // out a 500 ms retransmission after every reconnect instead would make
  // about 54 connects in this span.
  EXPECT_GT(storm.window().connects, 180u);
  EXPECT_GT(storm.metrics().replies, 0u);
  cluster.shutdown();
}

TEST(StormTest, ForcedReconnectAllTurnsThePopulationOver) {
  real::RealClusterConfig config = small_cluster(28);
  real::RealCluster cluster(config);
  cluster.start();

  real::StormOptions options = storm_options(cluster, 16, 28);
  options.load.open_loop_rate = 1.0;
  real::StormEngine storm(options);
  storm.start();
  storm.run_for(500 * kMillisecond);
  const std::uint64_t before = storm.window().connects;
  EXPECT_GE(before, 16u * 3);

  storm.reconnect_all();
  storm.run_for(600 * kMillisecond);
  EXPECT_GE(storm.window().connects, before + 16u * 3);
  EXPECT_EQ(storm.gauges().open_connections, 16u * 3);
  cluster.shutdown();
}

TEST(StormTest, OpenLoopArrivalsSurviveAReconnect) {
  real::RealClusterConfig config = small_cluster(28);
  real::RealCluster cluster(config);
  cluster.start();

  constexpr std::size_t kSessions = 16;
  constexpr double kRate = 50;
  real::StormOptions options = storm_options(cluster, kSessions, 28);
  options.load.open_loop_rate = kRate;
  options.reconnect_delay_min = 400 * kMillisecond;
  options.reconnect_delay_max = 400 * kMillisecond;
  real::StormEngine storm(options);
  storm.start();
  storm.run_for(300 * kMillisecond);

  // Arrivals keep coming due while every session waits 400 ms to
  // reconnect. They queue per session and go out once the connections
  // are back, so the offered load is the configured one.
  storm.reset_window();
  storm.reconnect_all();
  storm.run_for(kSecond);
  const double due = kSessions * kRate;
  EXPECT_GE(static_cast<double>(storm.metrics().issued), 0.8 * due);
  EXPECT_GT(storm.metrics().replies, 0u);
  cluster.shutdown();
}

}  // namespace
}  // namespace idem
