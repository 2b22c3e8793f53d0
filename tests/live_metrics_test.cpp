// Windowed live metrics over registry reads: snapshot windowing, merging
// members' reads by name, and exposition rendering. The cross-thread
// scrape runs end to end in RealClusterTest.AdminServesThroughALeaderCrash.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/json.hpp"
#include "obs/live_metrics.hpp"
#include "obs/metrics_registry.hpp"

namespace idem::obs {
namespace {

TEST(LiveMetrics, CounterWindowsSinceLastSnapshot) {
  MetricsRegistry registry;
  std::uint64_t accepts = 5;
  registry.add_counter("accepts", [&accepts] { return static_cast<double>(accepts); });

  LiveMetrics live;
  LiveSnapshot first = live.snapshot(registry.read());
  ASSERT_EQ(first.counters.size(), 1u);
  EXPECT_EQ(first.counters[0].name, "accepts");
  EXPECT_EQ(first.counters[0].total, 5u);
  EXPECT_EQ(first.counters[0].window, 5u);
  EXPECT_GT(first.counters[0].rate, 0.0);

  accepts += 3;
  LiveSnapshot second = live.snapshot(registry.read());
  EXPECT_EQ(second.counters[0].total, 8u);
  EXPECT_EQ(second.counters[0].window, 3u);

  // A quiet window: totals persist, the window is empty.
  LiveSnapshot third = live.snapshot(registry.read());
  EXPECT_EQ(third.counters[0].total, 8u);
  EXPECT_EQ(third.counters[0].window, 0u);
  EXPECT_EQ(third.counters[0].rate, 0.0);
}

TEST(LiveMetrics, SetMirrorsExternalTotalsIntoWindows) {
  // A counter its component keeps (TransportStats) is read at scrape
  // time; the window machinery deltas it like any counter.
  MetricsRegistry registry;
  std::uint64_t sent = 100;
  registry.add_counter("tcp_messages_sent", [&sent] { return static_cast<double>(sent); });
  LiveMetrics live;
  EXPECT_EQ(live.snapshot(registry.read()).counters[0].window, 100u);
  sent = 140;
  LiveSnapshot snap = live.snapshot(registry.read());
  EXPECT_EQ(snap.counters[0].total, 140u);
  EXPECT_EQ(snap.counters[0].window, 40u);
}

TEST(LiveMetrics, HistogramQuantilesCoverOnlyTheWindow) {
  MetricsRegistry registry;
  Histogram latency;
  registry.add_histogram("reply_latency", latency);
  for (int i = 0; i < 1000; ++i) latency.record(1000);
  LiveMetrics live;
  (void)live.snapshot(registry.read());

  // New window at a different magnitude: quantiles must not see the old
  // thousand samples at 1 us.
  for (int i = 0; i < 100; ++i) latency.record(1'000'000);
  LiveSnapshot snap = live.snapshot(registry.read());
  ASSERT_EQ(snap.latencies.size(), 1u);
  EXPECT_EQ(snap.latencies[0].window_count, 100u);
  EXPECT_EQ(snap.latencies[0].total_count, 1100u);
  EXPECT_NEAR(static_cast<double>(snap.latencies[0].p50), 1e6, 1e6 * 0.04);
  EXPECT_NEAR(snap.latencies[0].mean_ns, 1e6, 1e6 * 0.04);
}

TEST(LiveMetrics, ShardsAggregateByName) {
  // Identical series names in different members' reads (one per replica)
  // merge into one cluster-wide series.
  MetricsRegistry a;
  MetricsRegistry b;
  a.add_counter("accepts", [] { return 2.0; });
  b.add_counter("accepts", [] { return 3.0; });
  MetricsReading merged = a.read();
  merged.merge(b.read());
  LiveSnapshot snap = LiveMetrics().snapshot(std::move(merged));
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].total, 5u);
}

TEST(LiveMetrics, PrometheusRenderCarriesLabelsAndQuantiles) {
  MetricsRegistry registry;
  registry.add_counter("rejects[reason=rt-queue-full]", [] { return 7.0; });
  Histogram latency;
  latency.record(1'000'000);
  registry.add_histogram("reply_latency", latency);

  std::string text = LiveMetrics::render_prometheus(LiveMetrics().snapshot(registry.read()));
  EXPECT_NE(text.find("idem_window_seconds"), std::string::npos);
  EXPECT_NE(text.find("idem_rejects_total{reason=\"rt-queue-full\"} 7"), std::string::npos);
  EXPECT_NE(text.find("idem_rejects_rate{reason=\"rt-queue-full\"}"), std::string::npos);
  EXPECT_NE(text.find("idem_reply_latency_p50_seconds"), std::string::npos);
  EXPECT_NE(text.find("idem_reply_latency_p999_seconds"), std::string::npos);
}

TEST(LiveMetrics, JsonRenderCarriesWindowAndSeries) {
  MetricsRegistry registry;
  registry.add_counter("replies", [] { return 4.0; });
  const json::Value doc = LiveMetrics::render_json(LiveMetrics().snapshot(registry.read()));
  const json::Value parsed = json::Value::parse(doc.dump());
  EXPECT_TRUE(parsed.contains("window_seconds"));
  EXPECT_EQ(parsed.at("counters").at("replies").at("total").as_uint(), 4u);
}

}  // namespace
}  // namespace idem::obs
