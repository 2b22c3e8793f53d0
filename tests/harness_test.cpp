// Tests for the experiment harness itself: cluster builder, load driver
// semantics (warm-up exclusion, rejection backoff, fixed-count mode, the
// open-loop arrival FIFO), custom acceptance tests end to end, and the
// table printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "harness/load.hpp"
#include "harness/table.hpp"
#include "test_util.hpp"

namespace idem {
namespace {

using harness::Cluster;
using harness::LoadConfig;
using harness::Protocol;
using test::test_cluster_config;

TEST(Harness, ProtocolNames) {
  EXPECT_STREQ(harness::protocol_name(Protocol::Idem), "IDEM");
  EXPECT_STREQ(harness::protocol_name(Protocol::IdemNoPR), "IDEM_noPR");
  EXPECT_STREQ(harness::protocol_name(Protocol::PaxosLBR), "Paxos_LBR");
  EXPECT_STREQ(harness::protocol_name(Protocol::Smart), "BFT-SMaRt");
}

TEST(Harness, ClusterBuildsAllProtocols) {
  for (Protocol protocol : {Protocol::Idem, Protocol::IdemNoPR, Protocol::IdemNoAQM,
                            Protocol::Paxos, Protocol::PaxosLBR, Protocol::Smart}) {
    Cluster cluster(test_cluster_config(protocol, /*clients=*/2));
    EXPECT_EQ(cluster.num_clients(), 2u) << harness::protocol_name(protocol);
    EXPECT_EQ(cluster.leader_index(), 0u) << harness::protocol_name(protocol);
  }
}

TEST(Harness, TypedAccessorsMatchProtocol) {
  Cluster idem(test_cluster_config(Protocol::Idem));
  EXPECT_NE(idem.idem_replica(0), nullptr);
  EXPECT_EQ(idem.paxos_replica(0), nullptr);
  Cluster paxos(test_cluster_config(Protocol::Paxos));
  EXPECT_NE(paxos.paxos_replica(0), nullptr);
  EXPECT_EQ(paxos.smart_replica(0), nullptr);
}

TEST(Harness, PreloadPopulatesEveryReplica) {
  auto config = test_cluster_config(Protocol::Idem);
  config.preload = true;
  config.workload.record_count = 100;
  Cluster cluster(config);
  for (int i = 0; i < 3; ++i) {
    auto* store = dynamic_cast<app::KvStore*>(&cluster.idem_replica(i)->state_machine());
    ASSERT_NE(store, nullptr);
    EXPECT_GE(store->size(), 95u);
  }
  // All replicas start from byte-identical state.
  EXPECT_EQ(cluster.idem_replica(0)->state_machine().snapshot(),
            cluster.idem_replica(2)->state_machine().snapshot());
}

TEST(Harness, DriverMeasuresOnlyAfterWarmup) {
  auto config = test_cluster_config(Protocol::Idem, /*clients=*/2);
  Cluster cluster(config);
  LoadConfig driver;
  driver.warmup = kSecond;
  driver.measure = kSecond;
  harness::RunMetrics metrics = harness::drive(cluster, driver);

  EXPECT_GT(metrics.replies, 100u);
  EXPECT_EQ(metrics.measured, kSecond);
  // The timeline covers the whole run including warm-up: it must contain
  // roughly twice the measured operations.
  EXPECT_GT(metrics.reply_series.total(), metrics.replies + metrics.replies / 2);
}

TEST(Harness, DriverStopsAfterFixedReplies) {
  auto config = test_cluster_config(Protocol::Idem, /*clients=*/4);
  Cluster cluster(config);
  LoadConfig driver;
  driver.stop_after_replies = 500;
  harness::RunMetrics metrics = harness::drive(cluster, driver);
  EXPECT_GE(metrics.replies, 500u);
  EXPECT_LT(metrics.replies, 520u);  // stops promptly
  EXPECT_GT(metrics.client_traffic.bytes, 0u);
  EXPECT_GT(metrics.replica_traffic.bytes, 0u);
}

TEST(Harness, RejectedClientsBackOff) {
  auto config = test_cluster_config(Protocol::Idem, /*clients=*/4);
  config.reject_threshold = 0;  // everything rejected
  Cluster cluster(config);
  LoadConfig driver;
  driver.warmup = 0;
  driver.measure = 2 * kSecond;
  driver.backoff_min = 50 * kMillisecond;
  driver.backoff_max = 100 * kMillisecond;
  harness::RunMetrics metrics = harness::drive(cluster, driver);

  EXPECT_EQ(metrics.replies, 0u);
  // With a ~75 ms mean cycle (reject latency + backoff), each client
  // completes roughly 2s / 75ms = 26 attempts.
  EXPECT_GT(metrics.rejects, 4 * 15u);
  EXPECT_LT(metrics.rejects, 4 * 45u);
}

/// Answers every operation with a REPLY exactly kService after invoke()
/// and logs the invoke times.
class FixedServiceClient final : public consensus::ServiceClient {
 public:
  static constexpr Duration kService = 10 * kMillisecond;

  explicit FixedServiceClient(sim::Simulator& sim) : sim_(sim) {}

  void invoke(std::vector<std::byte>, Callback callback) override {
    busy_ = true;
    const Time issued = sim_.now();
    invoked.push_back(issued);
    sim_.schedule_after(kService, [this, issued, callback = std::move(callback)] {
      busy_ = false;
      consensus::Outcome outcome;
      outcome.issued = issued;
      outcome.completed = sim_.now();
      callback(outcome);
    });
  }
  ClientId client_id() const override { return ClientId{0}; }
  bool busy() const override { return busy_; }

  std::vector<Time> invoked;

 private:
  sim::Simulator& sim_;
  bool busy_ = false;
};

TEST(Harness, OpenLoopQueuesEveryArrivalAndTimesItFromItsDueTime) {
  // 50 arrivals/s against a 10 ms service: ~50% utilisation, so arrivals
  // regularly land while the previous operation is still running.
  constexpr double kRate = 50;
  constexpr Time kEnd = 20 * kSecond;
  sim::Simulator sim(3);
  FixedServiceClient client(sim);
  LoadConfig load;
  load.open_loop_rate = kRate;
  harness::LoadDriver driver(sim, {&client}, load);
  driver.start();
  sim.run_until(kEnd);
  driver.stop();

  // Replay the arrival process from the driver's stream, then serve it
  // FIFO: operation k is issued at max(due_k, completion of k-1).
  sim::Simulator replay(3);
  Rng& gaps = replay.rng("arrival.client.0");
  std::vector<Time> due, expected_issue;
  for (Time t = static_cast<Duration>(gaps.exponential(1.0 / kRate) * kSecond); t <= kEnd;
       t += static_cast<Duration>(gaps.exponential(1.0 / kRate) * kSecond)) {
    due.push_back(t);
  }
  ASSERT_GT(due.size(), 900u);
  Time free_at = 0;
  for (Time d : due) {
    const Time issue = std::max(d, free_at);
    if (issue > kEnd) break;
    expected_issue.push_back(issue);
    free_at = issue + FixedServiceClient::kService;
  }

  // Every due arrival issued exactly once, in due order, on time.
  EXPECT_EQ(client.invoked, expected_issue);
  EXPECT_GT(driver.metrics().deferred, 0u) << "the run must exercise the FIFO";

  // Recorded latency runs from the due time, queueing included.
  Duration max_latency = 0;
  double latency_sum = 0;
  std::uint64_t completed = 0;
  for (std::size_t k = 0; k < expected_issue.size(); ++k) {
    const Time done = expected_issue[k] + FixedServiceClient::kService;
    if (done > kEnd) break;
    max_latency = std::max(max_latency, done - due[k]);
    latency_sum += static_cast<double>(done - due[k]);
    ++completed;
  }
  const harness::RunMetrics& metrics = driver.metrics();
  EXPECT_EQ(metrics.replies, completed);
  EXPECT_GT(max_latency, FixedServiceClient::kService);
  EXPECT_EQ(metrics.reply_latency.max(), max_latency);
  EXPECT_NEAR(metrics.reply_latency.mean(), latency_sum / static_cast<double>(completed), 1.0);
}

/// Holds each operation open until the test concludes it.
class ManualClient final : public consensus::ServiceClient {
 public:
  explicit ManualClient(std::uint64_t id) : id_(id) {}

  void invoke(std::vector<std::byte>, Callback callback) override {
    ++invoked;
    pending_ = std::move(callback);
  }
  ClientId client_id() const override { return ClientId{id_}; }
  bool busy() const override { return static_cast<bool>(pending_); }

  void conclude(consensus::Outcome::Kind kind, Time now) {
    Callback callback = std::move(pending_);
    pending_ = nullptr;
    consensus::Outcome outcome;
    outcome.kind = kind;
    outcome.issued = now;
    outcome.completed = now;
    callback(outcome);
  }

  std::size_t invoked = 0;

 private:
  std::uint64_t id_;
  Callback pending_;
};

TEST(Harness, ClientsJoinAndLeaveARunningDriver) {
  for (const double rate : {0.0, 200.0}) {
    SCOPED_TRACE(rate > 0 ? "open loop" : "closed loop");
    sim::Simulator sim(5);
    FixedServiceClient steady(sim);
    LoadConfig load;
    load.open_loop_rate = rate;
    harness::LoadDriver driver(sim, {&steady}, load);
    driver.start();
    sim.run_until(100 * kMillisecond);

    // A client that joins a running driver starts issuing at once.
    ManualClient late(7);
    driver.add(&late);
    sim.run_until(150 * kMillisecond);
    EXPECT_EQ(late.invoked, 1u);
    ASSERT_TRUE(late.busy());
    EXPECT_EQ(driver.in_flight(), 1u + (steady.busy() ? 1u : 0u));

    // It leaves with that operation in flight: the outcome that arrives
    // afterwards is ignored, so no rejection is counted, no backoff or
    // queued arrival re-issues, and its arrival timer never fires again.
    driver.remove(&late);
    EXPECT_EQ(driver.in_flight(), steady.busy() ? 1u : 0u);
    late.conclude(consensus::Outcome::Kind::Rejected, sim.now());
    const std::size_t steady_before = steady.invoked.size();
    sim.run_until(kSecond);
    EXPECT_EQ(late.invoked, 1u);
    EXPECT_EQ(driver.metrics().rejects, 0u);
    // The rest of the population keeps running.
    EXPECT_GT(steady.invoked.size(), steady_before + 10);
    driver.stop();
  }
}

TEST(Harness, CustomAcceptanceFactoryIsUsed) {
  auto config = test_cluster_config(Protocol::Idem, /*clients=*/6);
  // Priority classes end to end: clients 0-2 are best effort (never
  // admitted above 0), clients 3-5 critical.
  config.acceptance_factory = [](std::size_t) {
    return std::make_unique<core::PriorityClasses>(
        [](ClientId cid) { return cid.value < 3 ? std::size_t{0} : std::size_t{1}; },
        std::vector<double>{0.0, 1.0});
  };
  Cluster cluster(config);

  for (std::size_t c = 0; c < 6; ++c) {
    auto outcome = test::invoke_and_wait(cluster, c, test::put_cmd("k", "v"), 5 * kSecond);
    ASSERT_TRUE(outcome.has_value()) << "client " << c;
    if (c < 3) {
      EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Rejected) << "client " << c;
    } else {
      EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply) << "client " << c;
    }
  }
}

TEST(Harness, CrashAtScheduledTimeTakesEffect) {
  auto config = test_cluster_config(Protocol::Idem);
  Cluster cluster(config);
  cluster.apply({sim::Fault::crash(100 * kMillisecond, 2)});
  cluster.simulator().run_until(50 * kMillisecond);
  EXPECT_EQ(cluster.leader_index(), 0u);
  cluster.simulator().run_until(200 * kMillisecond);
  auto outcome = test::invoke_and_wait(cluster, 0, test::put_cmd("k", "v"));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
}


TEST(Harness, IdenticalSeedsProduceIdenticalMetrics) {
  // The whole stack — workload, network, CPU jitter, protocol — is seeded:
  // two runs with the same seed must agree bit-for-bit; a different seed
  // must not.
  auto run = [](std::uint64_t seed) {
    auto config = test_cluster_config(Protocol::Idem, /*clients=*/8, seed);
    Cluster cluster(config);
    LoadConfig driver;
    driver.warmup = 200 * kMillisecond;
    driver.measure = kSecond;
    harness::RunMetrics metrics = harness::drive(cluster, driver);
    return std::tuple{metrics.replies, metrics.reply_latency.mean(),
                      metrics.client_traffic.bytes, metrics.replica_traffic.bytes};
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

// ---------------------------------------------------------------------------
// Table printer
// ---------------------------------------------------------------------------

TEST(TablePrinter, AlignsAndFormats) {
  harness::Table table({"name", "value"});
  table.add_row({"x", harness::Table::fmt(1.23456, 2)});
  table.add_row({"longer-name", harness::Table::fmt(std::uint64_t{42})});

  char buffer[512];
  std::FILE* stream = fmemopen(buffer, sizeof(buffer), "w");
  table.print(stream);
  std::fclose(stream);
  std::string out(buffer);
  EXPECT_NE(out.find("| name "), std::string::npos);
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(TablePrinter, CsvOutput) {
  harness::Table table({"a", "b"});
  table.add_row({"1", "2"});
  char buffer[256];
  std::FILE* stream = fmemopen(buffer, sizeof(buffer), "w");
  table.print_csv(stream);
  std::fclose(stream);
  EXPECT_STREQ(buffer, "a,b\n1,2\n");
}

TEST(TablePrinter, FmtPrecision) {
  EXPECT_EQ(harness::Table::fmt(3.14159, 3), "3.142");
  EXPECT_EQ(harness::Table::fmt(3.14159, 0), "3");
  EXPECT_EQ(harness::Table::fmt(std::uint64_t{123456}), "123456");
}

}  // namespace
}  // namespace idem
