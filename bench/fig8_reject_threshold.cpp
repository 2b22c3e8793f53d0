// Figure 8: variation of the reject threshold in IDEM.
//
// Paper result: the reject threshold RT trades throughput for latency.
//   RT=20 (far below capacity): throughput capped (~65% of max) but very
//          low and stable latency (<~0.6 ms in the paper's setup);
//   RT=50 (just below the edge): good throughput, latency plateau;
//   RT=75 (slightly above the edge): highest throughput, slightly higher
//          plateau.
// Below the threshold, all configurations perform identically.
#include <cstdio>

#include "bench_util.hpp"

using namespace idem;

int main() {
  std::printf("=== Figure 8: variation of the reject threshold RT in IDEM ===\n\n");

  harness::LoadConfig driver;
  driver.warmup = bench::warmup_duration();
  driver.measure = bench::measure_duration();

  const std::vector<std::size_t> client_counts = {10, 25, 50, 100, 200, 300, 400};

  struct Summary {
    std::size_t rt;
    double max_kops = 0;
    double plateau_ms = 0;  // latency at highest load
    double low_load_ms = 0;
  };
  std::vector<Summary> summaries;

  for (std::size_t rt : {20u, 50u, 75u}) {
    harness::ClusterConfig base;
    base.protocol = harness::Protocol::Idem;
    base.reject_threshold = rt;

    harness::Table table({"RT", "clients", "throughput[kreq/s]", "latency[ms]", "stddev[ms]",
                          "reject[kreq/s]"});
    Summary summary;
    summary.rt = rt;
    for (std::size_t clients : client_counts) {
      bench::LoadPoint point = bench::run_load_point(base, clients, driver);
      summary.max_kops = std::max(summary.max_kops, point.reply_kops);
      summary.plateau_ms = point.reply_ms;
      if (clients == client_counts.front()) summary.low_load_ms = point.reply_ms;
      table.add_row({harness::Table::fmt(std::uint64_t(rt)),
                     harness::Table::fmt(std::uint64_t(clients)),
                     harness::Table::fmt(point.reply_kops),
                     harness::Table::fmt(point.reply_ms, 3),
                     harness::Table::fmt(point.reply_stddev_ms, 3),
                     harness::Table::fmt(point.reject_kops, 2)});
    }
    bench::print_table(table);
    summaries.push_back(summary);
  }

  std::printf("summary:\n");
  for (const auto& s : summaries) {
    std::printf("  RT=%-3zu max throughput %.1f kreq/s, latency plateau %.2f ms\n", s.rt,
                s.max_kops, s.plateau_ms);
  }
  std::printf("shape checks:\n");
  std::printf(" - RT=20 caps throughput below RT=50 -> %s\n",
              summaries[0].max_kops < 0.92 * summaries[1].max_kops ? "OK" : "MISS");
  std::printf(" - RT=20 has the lowest latency plateau -> %s\n",
              summaries[0].plateau_ms < summaries[1].plateau_ms &&
                      summaries[0].plateau_ms < summaries[2].plateau_ms
                  ? "OK"
                  : "MISS");
  std::printf(" - RT=75 reaches the highest throughput -> %s\n",
              summaries[2].max_kops >= summaries[1].max_kops ? "OK" : "MISS");
  std::printf(" - identical low-load behavior across RT -> %s\n",
              std::abs(summaries[0].low_load_ms - summaries[2].low_load_ms) < 0.15 ? "OK"
                                                                                   : "MISS");
  return 0;
}
