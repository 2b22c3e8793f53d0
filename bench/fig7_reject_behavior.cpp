// Figure 7: reject behavior in IDEM under increasing load.
//
// Paper result: reject latency stays stable around 1.3-1.5 ms even at 8x
// the baseline client load — in the same range as a timely reply, so
// clients can switch to their fallback quickly. Because rejected clients
// back off (50-100 ms), the reject *rate* stays a small share of total
// throughput (<3% at moderate overload, ~10% at 8x).
#include <cstdio>

#include "bench_util.hpp"

using namespace idem;

int main() {
  std::printf("=== Figure 7: reject behavior in IDEM under increasing load ===\n");
  std::printf("(client-load factor 1x = 50 clients; optimistic clients, 5 ms wait)\n\n");

  harness::ClusterConfig base;
  base.protocol = harness::Protocol::Idem;
  base.reject_threshold = 50;

  harness::LoadConfig driver;
  driver.warmup = bench::warmup_duration();
  driver.measure = bench::measure_duration();

  harness::Table table({"load", "clients", "reply[kreq/s]", "latency[ms]", "reject[kreq/s]",
                        "rej-latency[ms]", "rej-stddev[ms]", "reject-share[%]"});
  double max_reject_ms = 0, min_reject_ms = 1e9;
  double share_at_8x = 0;
  for (double factor : {1.0, 2.0, 3.0, 4.0, 6.0, 8.0}) {
    std::size_t clients = static_cast<std::size_t>(50 * factor);
    bench::LoadPoint point = bench::run_load_point(base, clients, driver);
    double share = 100.0 * point.reject_kops / std::max(1e-9, point.reply_kops + point.reject_kops);
    if (factor >= 2 && point.reject_kops > 0.05) {
      max_reject_ms = std::max(max_reject_ms, point.reject_ms);
      min_reject_ms = std::min(min_reject_ms, point.reject_ms);
    }
    if (factor == 8.0) share_at_8x = share;
    char label[16];
    std::snprintf(label, sizeof(label), "%.0fx", factor);
    table.add_row({label, harness::Table::fmt(std::uint64_t(clients)),
                   harness::Table::fmt(point.reply_kops),
                   harness::Table::fmt(point.reply_ms, 3),
                   harness::Table::fmt(point.reject_kops, 2),
                   harness::Table::fmt(point.reject_ms, 3),
                   harness::Table::fmt(point.reject_stddev_ms, 3),
                   harness::Table::fmt(share, 1)});
  }
  bench::print_table(table);

  std::printf("shape checks:\n");
  std::printf(" - reject latency stable across overload (%.2f..%.2f ms) -> %s\n",
              min_reject_ms, max_reject_ms,
              (max_reject_ms - min_reject_ms) < 1.5 ? "OK" : "MISS");
  std::printf(" - rejects remain a small share of throughput at 8x (%.1f%%, paper ~10%%) -> %s\n",
              share_at_8x, share_at_8x < 25.0 ? "OK" : "MISS");
  return 0;
}
