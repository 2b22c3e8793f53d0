// Extension experiment (beyond the paper): group-size scalability.
//
// The paper evaluates n = 3 (f = 1). This bench sweeps n ∈ {3, 5, 7}
// under normal load and overload: execution on every replica plus the
// client multicast fan-out make throughput drop with n, while the reject
// plateau — the property that matters — holds at every size. Crash
// tolerance scales with f (the n=7 cluster tolerates three crashes).
#include <cstdio>

#include "bench_util.hpp"

using namespace idem;

int main() {
  std::printf("=== Extension: IDEM at larger group sizes ===\n\n");

  harness::LoadConfig driver;
  driver.warmup = bench::warmup_duration();
  driver.measure = bench::measure_duration();

  harness::Table table({"n", "f", "clients", "throughput[kreq/s]", "latency[ms]",
                        "reject[kreq/s]"});
  struct Point {
    double kops;
    double ms;
  };
  Point plateau[3];
  int row = 0;
  for (std::size_t n : {3u, 5u, 7u}) {
    harness::ClusterConfig base;
    base.protocol = harness::Protocol::Idem;
    base.n = n;
    base.f = (n - 1) / 2;
    base.reject_threshold = 50;
    for (std::size_t clients : {25u, 50u, 200u}) {
      bench::LoadPoint point = bench::run_load_point(base, clients, driver);
      if (clients == 200) plateau[row] = {point.reply_kops, point.reply_ms};
      table.add_row({harness::Table::fmt(std::uint64_t(n)),
                     harness::Table::fmt(std::uint64_t(base.f)),
                     harness::Table::fmt(std::uint64_t(clients)),
                     harness::Table::fmt(point.reply_kops),
                     harness::Table::fmt(point.reply_ms, 3),
                     harness::Table::fmt(point.reject_kops, 2)});
    }
    ++row;
  }
  bench::print_table(table);

  std::printf("shape checks:\n");
  std::printf(" - throughput decreases with n (%.1f > %.1f > %.1f kreq/s) -> %s\n",
              plateau[0].kops, plateau[1].kops, plateau[2].kops,
              plateau[0].kops > plateau[1].kops && plateau[1].kops > plateau[2].kops
                  ? "OK"
                  : "MISS");
  bool plateaus = true;
  for (int i = 0; i < 3; ++i) {
    if (plateau[i].ms > 4.0) plateaus = false;
  }
  std::printf(" - the overload plateau holds at every n (all <= 4 ms at 4x) -> %s\n",
              plateaus ? "OK" : "MISS");
  return 0;
}
