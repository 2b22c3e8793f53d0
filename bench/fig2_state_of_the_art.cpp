// Figure 2: behavior of existing replication protocols under load.
//
// Paper result: a two-tier quality of service. Below saturation (the
// "good tier") Paxos answers with low, stable latency; past the
// saturation point requests queue up and the average latency — and its
// standard deviation — escalate (the "bad tier").
#include <cstdio>

#include "bench_util.hpp"

using namespace idem;

int main() {
  std::printf("=== Figure 2: state-of-the-art protocols under load (Paxos) ===\n");
  std::printf("(average latency and standard deviation vs achieved throughput)\n\n");

  harness::ClusterConfig base;
  base.protocol = harness::Protocol::Paxos;

  harness::LoadConfig driver;
  driver.warmup = bench::warmup_duration();
  driver.measure = bench::measure_duration();

  harness::Table table({"clients", "throughput[kreq/s]", "latency[ms]", "stddev[ms]",
                        "p99[ms]", "tier"});
  double saturation_kops = 0;
  std::vector<bench::LoadPoint> points;
  for (std::size_t clients : {5u, 10u, 20u, 30u, 40u, 50u, 60u, 80u, 100u, 150u, 200u}) {
    bench::LoadPoint point = bench::run_load_point(base, clients, driver);
    points.push_back(point);
    saturation_kops = std::max(saturation_kops, point.reply_kops);
  }
  for (const auto& point : points) {
    // Good tier: the system still converts added clients into throughput.
    bool saturated = point.reply_kops < saturation_kops * 0.98 &&
                     point.reply_ms > points.front().reply_ms * 2;
    table.add_row({harness::Table::fmt(std::uint64_t(point.clients)),
                   harness::Table::fmt(point.reply_kops),
                   harness::Table::fmt(point.reply_ms, 3),
                   harness::Table::fmt(point.reply_stddev_ms, 3),
                   harness::Table::fmt(point.reply_p99_ms, 3),
                   saturated ? "bad (overload)" : "good"});
  }
  bench::print_table(table);

  const auto& low = points.front();
  const auto& high = points.back();
  std::printf("latency blow-up at ~4x saturation load: %.0f%% of low-load latency\n",
              100.0 * high.reply_ms / low.reply_ms);
  std::printf("shape check: blow-up >> 600%% (paper Section 7.2) -> %s\n",
              high.reply_ms > 6 * low.reply_ms ? "OK" : "MISS");
  return 0;
}
