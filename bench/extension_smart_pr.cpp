// Extension experiment (beyond the paper): collaborative proactive
// rejection composed with a different consensus protocol.
//
// The paper argues (Section 4.2) that implementing overload prevention as
// a separate protocol phase makes it portable across consensus protocols.
// This bench validates the claim on the Mod-SMaRt-style baseline: SMaRt
// alone explodes past saturation; SMaRt+PR — identical agreement, IDEM's
// intake phase bolted on — plateaus like IDEM does.
#include <cstdio>

#include "bench_util.hpp"

using namespace idem;

int main() {
  std::printf("=== Extension: proactive rejection on a different consensus protocol ===\n");
  std::printf("(SMaRt agreement unchanged; IDEM's intake phase composed in front)\n\n");

  harness::LoadConfig driver;
  driver.warmup = bench::warmup_duration();
  driver.measure = bench::measure_duration();

  struct Row {
    std::size_t clients;
    bench::LoadPoint smart;
    bench::LoadPoint smart_pr;
  };
  std::vector<Row> rows;
  for (std::size_t clients : {10u, 25u, 50u, 100u, 200u}) {
    Row row;
    row.clients = clients;
    harness::ClusterConfig base;
    base.reject_threshold = 50;
    base.protocol = harness::Protocol::Smart;
    row.smart = bench::run_load_point(base, clients, driver);
    base.protocol = harness::Protocol::SmartPR;
    row.smart_pr = bench::run_load_point(base, clients, driver);
    rows.push_back(row);
  }

  harness::Table table({"clients", "SMaRt[kreq/s]", "SMaRt lat[ms]", "SMaRt+PR[kreq/s]",
                        "SMaRt+PR lat[ms]", "SMaRt+PR rejects[kreq/s]"});
  for (const Row& row : rows) {
    table.add_row({harness::Table::fmt(std::uint64_t(row.clients)),
                   harness::Table::fmt(row.smart.reply_kops),
                   harness::Table::fmt(row.smart.reply_ms, 3),
                   harness::Table::fmt(row.smart_pr.reply_kops),
                   harness::Table::fmt(row.smart_pr.reply_ms, 3),
                   harness::Table::fmt(row.smart_pr.reject_kops, 2)});
  }
  bench::print_table(table);

  const Row& overload = rows.back();
  const Row& low = rows.front();
  std::printf("shape checks:\n");
  std::printf(" - SMaRt explodes at 4x (%.1fx of low-load latency) -> %s\n",
              overload.smart.reply_ms / low.smart.reply_ms,
              overload.smart.reply_ms > 3 * low.smart.reply_ms ? "OK" : "MISS");
  std::printf(" - SMaRt+PR plateaus (%.2f ms at 4x, <2x of its knee) -> %s\n",
              overload.smart_pr.reply_ms,
              overload.smart_pr.reply_ms < 2 * rows[2].smart_pr.reply_ms ? "OK" : "MISS");
  std::printf(" - identical below saturation -> %s\n",
              std::abs(low.smart.reply_ms - low.smart_pr.reply_ms) < 0.2 ? "OK" : "MISS");
  return 0;
}
