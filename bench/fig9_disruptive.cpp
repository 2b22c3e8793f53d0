// Figure 9: IDEM under disruptive conditions.
//
// (a) Misconfigured threshold (RT=100, far above capacity): the system
//     reaches overload before rejection can prevent it; latency climbs to
//     ~2 ms, the increase slows once rejection activates, and only under
//     severe overload does it creep up again. Still no Paxos-style
//     explosion.
// (b) Extreme load (up to 14x the baseline): throughput degrades
//     gracefully (to ~55% of peak in the paper) while latency stays low,
//     because most clients see rejects and back off.
#include <cstdio>

#include "bench_util.hpp"

using namespace idem;

int main() {
  harness::LoadConfig driver;
  driver.warmup = bench::warmup_duration();
  driver.measure = bench::measure_duration();

  // -------------------------------------------------------------------
  std::printf("=== Figure 9a: misconfigured reject threshold (RT=100) ===\n\n");
  {
    harness::ClusterConfig base;
    base.protocol = harness::Protocol::Idem;
    base.reject_threshold = 100;

    harness::Table table({"load", "clients", "throughput[kreq/s]", "latency[ms]",
                          "stddev[ms]", "reject[kreq/s]"});
    std::vector<bench::LoadPoint> points;
    for (double factor : {1.0, 2.0, 4.0, 6.0, 8.0}) {
      std::size_t clients = static_cast<std::size_t>(50 * factor);
      bench::LoadPoint point = bench::run_load_point(base, clients, driver);
      points.push_back(point);
      char label[16];
      std::snprintf(label, sizeof(label), "%.0fx", factor);
      table.add_row({label, harness::Table::fmt(std::uint64_t(clients)),
                     harness::Table::fmt(point.reply_kops),
                     harness::Table::fmt(point.reply_ms, 3),
                     harness::Table::fmt(point.reply_stddev_ms, 3),
                     harness::Table::fmt(point.reject_kops, 2)});
    }
    bench::print_table(table);
    double ratio_4x_to_1x = points[2].reply_ms / points[0].reply_ms;
    std::printf("shape checks:\n");
    std::printf(" - latency rises past the well-configured plateau -> %s\n",
                points[2].reply_ms > 1.6 ? "OK" : "MISS");
    std::printf(" - but no state-of-the-art explosion (4x/1x latency = %.1fx, Paxos-style"
                " would be ~4x) -> %s\n",
                ratio_4x_to_1x, ratio_4x_to_1x < 3.0 ? "OK" : "MISS");
  }

  // -------------------------------------------------------------------
  std::printf("\n=== Figure 9b: extreme load (up to 14x baseline) ===\n\n");
  {
    harness::ClusterConfig base;
    base.protocol = harness::Protocol::Idem;
    base.reject_threshold = 50;

    harness::Table table({"load", "clients", "throughput[kreq/s]", "latency[ms]",
                          "stddev[ms]", "reject[kreq/s]"});
    double peak = 0, at_14x_kops = 0, at_14x_ms = 0;
    for (double factor : {2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0}) {
      std::size_t clients = static_cast<std::size_t>(50 * factor);
      bench::LoadPoint point = bench::run_load_point(base, clients, driver);
      peak = std::max(peak, point.reply_kops);
      at_14x_kops = point.reply_kops;
      at_14x_ms = point.reply_ms;
      char label[16];
      std::snprintf(label, sizeof(label), "%.0fx", factor);
      table.add_row({label, harness::Table::fmt(std::uint64_t(clients)),
                     harness::Table::fmt(point.reply_kops),
                     harness::Table::fmt(point.reply_ms, 3),
                     harness::Table::fmt(point.reply_stddev_ms, 3),
                     harness::Table::fmt(point.reject_kops, 2)});
    }
    bench::print_table(table);
    std::printf("shape checks:\n");
    std::printf(" - throughput at 14x degrades gracefully (%.0f%% of peak; paper: ~55%%)"
                " -> %s\n",
                100.0 * at_14x_kops / peak, at_14x_kops > 0.35 * peak ? "OK" : "MISS");
    std::printf(" - latency at 14x stays low (%.2f ms; paper: ~0.9 ms) -> %s\n", at_14x_ms,
                at_14x_ms < 2.5 ? "OK" : "MISS");
  }
  return 0;
}
