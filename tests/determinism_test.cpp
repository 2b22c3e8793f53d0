// Deterministic-replay regression for the simulation kernel.
//
// The kernel contract: identical seeds produce identical simulation traces.
// Runs a short closed-loop experiment twice per protocol and requires the
// metrics — counts, bit-exact latency moments, traffic bytes, and the total
// number of dispatched events — to match exactly. Any nondeterminism in
// event ordering (e.g. an unstable heap tie-break) shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/load.hpp"
#include "harness/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/fault_plan.hpp"

namespace idem::harness {
namespace {

struct Trace {
  std::uint64_t replies = 0;
  std::uint64_t rejects = 0;
  std::uint64_t timeouts = 0;
  double reply_mean = 0;
  double reply_stddev = 0;
  double reply_p99 = 0;
  double reject_mean = 0;
  std::uint64_t client_messages = 0;
  std::uint64_t client_bytes = 0;
  std::uint64_t replica_messages = 0;
  std::uint64_t replica_bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;

  bool operator==(const Trace&) const = default;
};

Trace run_once(Protocol protocol, std::uint64_t seed) {
  ClusterConfig config;
  config.protocol = protocol;
  config.clients = 40;
  config.reject_threshold = 20;
  config.seed = seed;

  LoadConfig driver;
  driver.warmup = 100 * kMillisecond;
  driver.measure = 400 * kMillisecond;

  Cluster cluster(config);
  RunMetrics metrics = drive(cluster, driver);

  Trace t;
  t.replies = metrics.replies;
  t.rejects = metrics.rejects;
  t.timeouts = metrics.timeouts;
  t.reply_mean = metrics.reply_latency.mean();
  t.reply_stddev = metrics.reply_latency.stddev();
  t.reply_p99 = static_cast<double>(metrics.reply_latency.p99());
  t.reject_mean = metrics.reject_latency.mean();
  t.client_messages = metrics.client_traffic.messages;
  t.client_bytes = metrics.client_traffic.bytes;
  t.replica_messages = metrics.replica_traffic.messages;
  t.replica_bytes = metrics.replica_traffic.bytes;
  t.events = cluster.simulator().events_executed();
  t.dropped = cluster.network().dropped_messages();
  return t;
}

class DeterminismTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(DeterminismTest, SameSeedSameTrace) {
  Trace first = run_once(GetParam(), 11);
  Trace second = run_once(GetParam(), 11);
  EXPECT_EQ(first, second);
  // The runs did real work (otherwise the comparison is vacuous).
  EXPECT_GT(first.replies, 0u);
  EXPECT_GT(first.events, 1000u);
}

TEST_P(DeterminismTest, DifferentSeedDifferentTrace) {
  Trace first = run_once(GetParam(), 11);
  Trace other = run_once(GetParam(), 12);
  EXPECT_NE(first, other);
}

// The runs above compare one binary with itself, so they cannot see a
// change that moves every trajectory alike (a reordered driver event, a
// renamed RNG stream). This pins the seed-11 trajectories to exact values;
// a change that moves them on purpose must restamp these numbers and say
// why.
TEST_P(DeterminismTest, Seed11TrajectoryIsPinned) {
  struct Pin {
    std::uint64_t events, replies, rejects, client_bytes, replica_bytes;
  };
  Pin pin{};
  switch (GetParam()) {
    case Protocol::Idem: pin = {177'451, 9'936, 93, 5'731'676, 1'360'248}; break;
    case Protocol::Paxos: pin = {382'351, 18'014, 0, 4'871'684, 10'829'516}; break;
    case Protocol::SmartPR: pin = {494'517, 9'666, 103, 7'922'038, 11'473'927}; break;
    default: pin = {661'336, 14'341, 0, 11'630'612, 14'970'626}; break;
  }
  const Trace t = run_once(GetParam(), 11);
  EXPECT_EQ(t.events, pin.events);
  EXPECT_EQ(t.replies, pin.replies);
  EXPECT_EQ(t.rejects, pin.rejects);
  EXPECT_EQ(t.client_bytes, pin.client_bytes);
  EXPECT_EQ(t.replica_bytes, pin.replica_bytes);
}

// The four pins above never retransmit, so they cannot see the
// leader-only client path. This pins a Paxos_LBR leader crash: clients
// fail over one replica per retry interval until they find the new leader
// (about 4 s without a reply or a REJECT), then its REJECTs end
// operations again. Stamped with the 1 s fail-over Paxos clients had when
// they were a class of their own; the one client must reproduce it.
TEST(DeterminismPin, PaxosLbrLeaderCrashTrajectoryIsPinned) {
  ClusterConfig config;
  config.protocol = Protocol::PaxosLBR;
  config.clients = 40;
  config.reject_threshold = 20;
  config.seed = 11;
  config.idem_client.retry_interval = kSecond;

  LoadConfig driver;
  driver.warmup = 100 * kMillisecond;
  driver.measure = 5 * kSecond;

  Cluster cluster(config);
  cluster.apply({sim::Fault::crash(400 * kMillisecond, sim::Fault::kLeader)});
  const RunMetrics metrics = drive(cluster, driver);
  EXPECT_EQ(cluster.simulator().events_executed(), 601'002u);
  EXPECT_EQ(metrics.replies, 40'742u);
  EXPECT_EQ(metrics.rejects, 152u);
  EXPECT_EQ(metrics.timeouts, 0u);
  EXPECT_EQ(metrics.client_traffic.bytes, 11'077'098u);
  EXPECT_EQ(metrics.replica_traffic.bytes, 20'554'962u);
}

// The observability layer inherits the kernel contract: two runs with the
// same seed must fill the trace ring with bit-identical events. Needs the
// trace sites compiled in (-DIDEM_TRACE_EVENTS=ON, the default).
#ifndef IDEM_TRACE_OFF
std::vector<obs::TraceEvent> run_traced(Protocol protocol, std::uint64_t seed) {
  ClusterConfig config;
  config.protocol = protocol;
  config.clients = 40;
  config.reject_threshold = 20;
  config.seed = seed;
  config.obs.trace = true;

  LoadConfig driver;
  driver.warmup = 100 * kMillisecond;
  driver.measure = 400 * kMillisecond;

  Cluster cluster(config);
  drive(cluster, driver);
  return cluster.trace()->snapshot();
}

TEST_P(DeterminismTest, SameSeedBitIdenticalTraceBuffer) {
  std::vector<obs::TraceEvent> first = run_traced(GetParam(), 11);
  std::vector<obs::TraceEvent> second = run_traced(GetParam(), 11);
  ASSERT_GT(first.size(), 1000u);
  ASSERT_EQ(first.size(), second.size());
  // TraceEvent is trivially copyable with no padding gaps left undefined
  // (the pad field is value-initialized), so memcmp is exact.
  EXPECT_EQ(std::memcmp(first.data(), second.data(), first.size() * sizeof(obs::TraceEvent)),
            0);
}
#endif  // IDEM_TRACE_OFF

INSTANTIATE_TEST_SUITE_P(AllProtocols, DeterminismTest,
                         ::testing::Values(Protocol::Idem, Protocol::Paxos, Protocol::Smart,
                                           Protocol::SmartPR),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           switch (info.param) {
                             case Protocol::Idem: return std::string("Idem");
                             case Protocol::Paxos: return std::string("Paxos");
                             case Protocol::SmartPR: return std::string("SmartPR");
                             default: return std::string("Smart");
                           }
                         });

}  // namespace
}  // namespace idem::harness
