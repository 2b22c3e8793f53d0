// Observability tests: trace recorder ring semantics, metrics registry,
// the span sequence emitted by a scripted 3-replica IDEM run (happy path,
// REJECT path, leader-crash/view-change path), the exporters, and the
// no-perturbation guarantee (a traced run executes the exact same
// simulation trajectory as an untraced one).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/reject_reason.hpp"
#include "consensus/addresses.hpp"
#include "idem/acceptance.hpp"
#include "harness/load.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

namespace idem {
namespace {

using harness::Cluster;
using harness::Protocol;
using obs::TraceEvent;
using obs::TraceEventKind;

TEST(TraceRecorder, RecordsAndWrapsOldestFirst) {
  obs::TraceRecorder recorder(4);
  EXPECT_EQ(recorder.capacity(), 4u);
  for (std::uint64_t i = 0; i < 6; ++i) {
    recorder.record(static_cast<Time>(i), TraceEventKind::Proposed, /*node=*/1, /*arg=*/i);
  }
  EXPECT_EQ(recorder.total_recorded(), 6u);
  EXPECT_EQ(recorder.overwritten(), 2u);
  EXPECT_EQ(recorder.size(), 4u);

  std::vector<TraceEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].at, static_cast<Time>(i + 2)) << "snapshot must be oldest-first";
    EXPECT_EQ(events[i].kind, TraceEventKind::Proposed);
  }

  recorder.clear();
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_TRUE(recorder.snapshot().empty());
}

TEST(TraceRecorder, RequestIdAndKindNamesRoundTrip) {
  obs::TraceRecorder recorder(8);
  RequestId id{ClientId{7}, OpNum{42}};
  recorder.record(5, TraceEventKind::Executed, 2, id, /*arg=*/9);
  std::vector<TraceEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].cid, 7u);
  EXPECT_EQ(events[0].onr, 42u);
  EXPECT_EQ(events[0].arg, 9u);
  EXPECT_EQ(events[0].node, 2u);
  EXPECT_STREQ(obs::to_string(events[0].kind), "executed");
  EXPECT_STREQ(obs::to_string(TraceEventKind::ViewChangeStart), "viewchange_start");
}

TEST(MetricsRegistry, CountersGaugesAndSampling) {
  obs::MetricsRegistry registry;
  std::uint64_t accepted = 0;
  registry.add_counter("accepted", [&accepted] { return static_cast<double>(accepted); });
  double queue = 0;
  registry.add_gauge("queue", [&queue] { return queue; });
  registry.reserve_samples(4);

  accepted += 3;
  queue = 1.5;
  registry.sample(100 * kMillisecond);
  accepted += 2;
  queue = 7;
  registry.sample(200 * kMillisecond);

  ASSERT_EQ(registry.series_count(), 2u);
  ASSERT_EQ(registry.rows(), 2u);
  EXPECT_EQ(registry.series_name(0), "accepted");
  EXPECT_EQ(registry.row_time(0), 100 * kMillisecond);
  EXPECT_EQ(registry.value(0, 0), 3.0);
  EXPECT_EQ(registry.value(0, 1), 1.5);
  EXPECT_EQ(registry.value(1, 0), 5.0);
  EXPECT_EQ(registry.value(1, 1), 7.0);
  EXPECT_EQ(registry.current("accepted"), 5.0);
  EXPECT_EQ(registry.current("queue"), 7.0);

  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  registry.write_jsonl(f);
  std::rewind(f);
  char buffer[4096];
  std::size_t got = std::fread(buffer, 1, sizeof buffer - 1, f);
  buffer[got] = '\0';
  std::fclose(f);
  std::string out(buffer);
  EXPECT_NE(out.find("{\"t_ms\":100,\"accepted\":3,\"queue\":1.5}\n"), std::string::npos);
  EXPECT_NE(out.find("{\"t_ms\":200,\"accepted\":5,\"queue\":7}\n"), std::string::npos);
}

// --- Span-sequence tests on a scripted 3-replica IDEM cluster ------------
// These need the protocol trace sites compiled in; with
// -DIDEM_TRACE_EVENTS=OFF the recorder stays empty by design.
#ifndef IDEM_TRACE_OFF

harness::ClusterConfig traced_config(std::size_t clients = 1, std::uint64_t seed = 1) {
  harness::ClusterConfig config = test::test_cluster_config(Protocol::Idem, clients, seed);
  config.obs.trace = true;
  return config;
}

std::vector<TraceEvent> events_of_kind(const std::vector<TraceEvent>& events,
                                       TraceEventKind kind) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& ev : events) {
    if (ev.kind == kind) out.push_back(ev);
  }
  return out;
}

TEST(ObsIntegration, HappyPathSpanSequence) {
  Cluster cluster(traced_config());
  const std::uint32_t leader = static_cast<std::uint32_t>(cluster.leader_index());
  const std::uint32_t client_node = consensus::client_address(ClientId{0}).value;

  auto outcome = test::invoke_and_wait(cluster, 0, test::put_cmd("k", "v"));
  ASSERT_TRUE(outcome.has_value());
  ASSERT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);
  cluster.simulator().run_for(kSecond);  // let followers execute too

  std::vector<TraceEvent> events = cluster.trace()->snapshot();
  ASSERT_FALSE(events.empty());
  // The very first transition is the client issuing the request.
  EXPECT_EQ(events.front().kind, TraceEventKind::RequestIssued);
  EXPECT_EQ(events.front().node, client_node);
  EXPECT_EQ(events.front().cid, 0u);
  EXPECT_EQ(events.front().onr, 1u);

  // All three replicas ran the acceptance test and accepted.
  auto verdicts = events_of_kind(events, TraceEventKind::AcceptVerdict);
  ASSERT_EQ(verdicts.size(), 3u);
  for (const TraceEvent& v : verdicts) EXPECT_EQ(v.arg, 1u);

  // The leader collected at least f+1 = 2 REQUIRE votes, then proposed.
  auto require_votes = events_of_kind(events, TraceEventKind::RequireNoted);
  ASSERT_GE(require_votes.size(), 2u);
  for (const TraceEvent& r : require_votes) EXPECT_EQ(r.node, leader);
  auto proposed = events_of_kind(events, TraceEventKind::Proposed);
  ASSERT_EQ(proposed.size(), 1u);
  EXPECT_EQ(proposed[0].node, leader);
  EXPECT_GE(proposed[0].at, require_votes[0].at);

  // Every replica adopted the binding, reached commit quorum, executed.
  EXPECT_EQ(events_of_kind(events, TraceEventKind::ProposeReceived).size(), 3u);
  auto quorums = events_of_kind(events, TraceEventKind::CommitQuorum);
  EXPECT_EQ(quorums.size(), 3u);
  auto executed = events_of_kind(events, TraceEventKind::Executed);
  ASSERT_EQ(executed.size(), 3u);
  for (const TraceEvent& ev : executed) {
    EXPECT_EQ(ev.cid, 0u);
    EXPECT_EQ(ev.onr, 1u);
  }

  // Exactly the leader replied, and the client saw a Reply outcome last.
  auto replies = events_of_kind(events, TraceEventKind::ReplySent);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].node, leader);
  auto outcomes = events_of_kind(events, TraceEventKind::RequestOutcome);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].node, client_node);
  EXPECT_EQ(outcomes[0].arg,
            static_cast<std::uint64_t>(consensus::Outcome::Kind::Reply));
  EXPECT_GE(outcomes[0].at, replies[0].at);

  // No rejection or view-change activity on the happy path.
  EXPECT_TRUE(events_of_kind(events, TraceEventKind::RejectSeen).empty());
  EXPECT_TRUE(events_of_kind(events, TraceEventKind::ViewChangeStart).empty());
}

TEST(ObsIntegration, RejectPathSpanSequence) {
  harness::ClusterConfig config = traced_config();
  config.reject_threshold = 0;  // TailDrop with r = 0 rejects everything
  config.acceptance_factory = [](std::size_t) { return std::make_unique<core::TailDrop>(); };
  Cluster cluster(config);

  auto outcome = test::invoke_and_wait(cluster, 0, test::put_cmd("k", "v"));
  ASSERT_TRUE(outcome.has_value());
  ASSERT_EQ(outcome->kind, consensus::Outcome::Kind::Rejected);

  std::vector<TraceEvent> events = cluster.trace()->snapshot();
  auto verdicts = events_of_kind(events, TraceEventKind::AcceptVerdict);
  ASSERT_EQ(verdicts.size(), 3u);
  for (const TraceEvent& v : verdicts) {
    EXPECT_FALSE(accept_verdict_accepted(v.arg));
    // Every reject verdict names a concrete reason (TailDrop sheds for load).
    EXPECT_EQ(accept_verdict_reason(v.arg), RejectReason::RtQueueFull);
  }

  // The client needed n-f = 2 REJECTs to abort.
  EXPECT_GE(events_of_kind(events, TraceEventKind::RejectSeen).size(), 2u);
  auto outcomes = events_of_kind(events, TraceEventKind::RequestOutcome);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].arg,
            static_cast<std::uint64_t>(consensus::Outcome::Kind::Rejected));

  // Nothing was ordered or executed.
  EXPECT_TRUE(events_of_kind(events, TraceEventKind::Proposed).empty());
  EXPECT_TRUE(events_of_kind(events, TraceEventKind::Executed).empty());
}

TEST(ObsIntegration, ViewChangeSpanSequence) {
  Cluster cluster(traced_config());
  ASSERT_EQ(test::invoke_and_wait(cluster, 0, test::put_cmd("k", "v"))->kind,
            consensus::Outcome::Kind::Reply);
  const std::uint32_t old_leader = static_cast<std::uint32_t>(cluster.leader_index());

  cluster.crash_replica(old_leader);
  cluster.simulator().run_for(3 * kSecond);

  auto outcome = test::invoke_and_wait(cluster, 0, test::put_cmd("after", "crash"),
                                       10 * kSecond);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_EQ(outcome->kind, consensus::Outcome::Kind::Reply);

  std::vector<TraceEvent> events = cluster.trace()->snapshot();
  auto starts = events_of_kind(events, TraceEventKind::ViewChangeStart);
  auto dones = events_of_kind(events, TraceEventKind::ViewChangeDone);
  ASSERT_GE(starts.size(), 1u);
  ASSERT_GE(dones.size(), 1u);
  for (const TraceEvent& ev : starts) EXPECT_NE(ev.node, old_leader);
  std::uint64_t max_view = 0;
  for (const TraceEvent& ev : dones) {
    EXPECT_NE(ev.node, old_leader);
    max_view = std::max(max_view, ev.arg);
  }
  EXPECT_GE(max_view, 1u) << "a higher view must have been installed";

  // The post-crash reply came from the new leader.
  auto replies = events_of_kind(events, TraceEventKind::ReplySent);
  ASSERT_FALSE(replies.empty());
  EXPECT_NE(replies.back().node, old_leader);
}

// --- No-perturbation and exporter tests ----------------------------------

struct RunResult {
  std::uint64_t events = 0;
  std::uint64_t replies = 0;
  std::uint64_t rejects = 0;
  std::uint64_t client_bytes = 0;
  std::uint64_t replica_bytes = 0;
};

RunResult run_load(bool traced, std::vector<TraceEvent>* trace_out = nullptr) {
  harness::ClusterConfig config = test::test_cluster_config(Protocol::Idem, /*clients=*/30,
                                                            /*seed=*/7);
  config.reject_threshold = 10;
  config.obs.trace = traced;

  harness::LoadConfig driver;
  driver.warmup = 100 * kMillisecond;
  driver.measure = 400 * kMillisecond;

  Cluster cluster(config);
  harness::RunMetrics metrics = harness::drive(cluster, driver);

  if (trace_out != nullptr && cluster.trace() != nullptr) {
    *trace_out = cluster.trace()->snapshot();
  }
  RunResult r;
  r.events = cluster.simulator().events_executed();
  r.replies = metrics.replies;
  r.rejects = metrics.rejects;
  r.client_bytes = metrics.client_traffic.bytes;
  r.replica_bytes = metrics.replica_traffic.bytes;
  return r;
}

TEST(ObsIntegration, TracingDoesNotPerturbTheSimulation) {
  RunResult untraced = run_load(false);
  std::vector<TraceEvent> trace;
  RunResult traced = run_load(true, &trace);

  EXPECT_EQ(traced.events, untraced.events)
      << "tracing must not add, remove, or reorder simulation events";
  EXPECT_EQ(traced.replies, untraced.replies);
  EXPECT_EQ(traced.rejects, untraced.rejects);
  EXPECT_EQ(traced.client_bytes, untraced.client_bytes);
  EXPECT_EQ(traced.replica_bytes, untraced.replica_bytes);
  EXPECT_GT(trace.size(), 1000u) << "the run must have produced real trace volume";
}

TEST(ObsIntegration, ChromeTraceExportIsBalanced) {
  std::vector<TraceEvent> trace;
  run_load(true, &trace);
  ASSERT_FALSE(trace.empty());

  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  obs::ChromeTraceStats stats = obs::write_chrome_trace(f, trace);
  EXPECT_GT(stats.spans, 100u);

  std::rewind(f);
  std::string out;
  char buffer[1 << 16];
  std::size_t got;
  while ((got = std::fread(buffer, 1, sizeof buffer, f)) > 0) out.append(buffer, got);
  std::fclose(f);

  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front(), '{');
  EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);

  auto count = [&out](const char* needle) {
    std::size_t n = 0;
    for (std::size_t pos = out.find(needle); pos != std::string::npos;
         pos = out.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  std::size_t begins = count("\"ph\":\"b\"");
  std::size_t ends = count("\"ph\":\"e\"");
  EXPECT_EQ(begins, ends) << "async begins and ends must balance";
  EXPECT_EQ(begins, stats.spans);
  EXPECT_GT(count("\"name\":\"request\""), 0u);
}

#endif  // IDEM_TRACE_OFF

TEST(ObsIntegration, MetricsTickSamplesTheCluster) {
  harness::ClusterConfig config = test::test_cluster_config(Protocol::Idem, /*clients=*/10);
  config.obs.metrics_interval = 50 * kMillisecond;
  Cluster cluster(config);

  harness::LoadConfig driver;
  driver.measure = 500 * kMillisecond;
  harness::drive(cluster, driver);

  obs::MetricsRegistry* metrics = cluster.metrics();
  ASSERT_NE(metrics, nullptr);
  EXPECT_GE(metrics->rows(), 9u);  // one sample per 50 ms over 500 ms
  EXPECT_GT(metrics->current("r0.executed"), 0.0);
  EXPECT_GT(metrics->current("r0.tx_bytes"), 0.0);
  EXPECT_GT(metrics->current("net.client_bytes"), 0.0);
}

}  // namespace
}  // namespace idem
