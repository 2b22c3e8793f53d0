// Extension experiment (beyond the paper): cost-aware admission under a
// mixed cheap/expensive workload.
//
// Section 5.1 names "an analysis of the request depending on the
// estimated resource costs" as a further acceptance-test option. Here the
// workload mixes cheap point operations with expensive scans (YCSB-E
// style, ~25x the execution cost). Under overload, the default AQM test
// admits by client identity only, so scans hog the capacity; the
// CostAware test admits expensive requests only while the system is
// lightly loaded, keeping cheap traffic flowing.
#include <cstdio>

#include "app/kv_store.hpp"
#include "bench_util.hpp"

using namespace idem;

namespace {

/// Prices a command for admission: scans cost their length, everything
/// else is cheap. Mirrors KvStore::execution_cost without decoding twice.
Duration estimate_cost(std::span<const std::byte> command) {
  try {
    app::KvCommand cmd = app::KvCommand::decode(command);
    if (cmd.op == app::KvOp::Scan) {
      return 4 * kMicrosecond + static_cast<Duration>(cmd.scan_len) * kMicrosecond;
    }
  } catch (const CodecError&) {
  }
  return 4 * kMicrosecond;
}

struct MixResult {
  double reply_kops = 0;
  double reject_kops = 0;
  double reply_ms = 0;
  double p99_ms = 0;
};

MixResult run_mix(bool cost_aware, std::size_t clients, harness::LoadConfig driver) {
  harness::ClusterConfig config;
  config.protocol = harness::Protocol::Idem;
  config.reject_threshold = 50;
  config.clients = clients;
  // Mixed workload: 80% point ops, 20% scans of up to 100 records.
  config.workload = app::YcsbConfig::update_heavy();
  config.workload.read_proportion = 0.4;
  config.workload.update_proportion = 0.4;
  config.workload.scan_proportion = 0.2;
  if (cost_aware) {
    config.acceptance_factory = [](std::size_t) {
      return std::make_unique<core::CostAware>(estimate_cost, /*cheap=*/10 * kMicrosecond,
                                               /*expensive=*/100 * kMicrosecond,
                                               /*min_fraction=*/0.2);
    };
  }
  harness::Cluster cluster(config);
  harness::RunMetrics metrics = harness::drive(cluster, driver);
  MixResult result;
  result.reply_kops = metrics.reply_throughput() / 1000.0;
  result.reject_kops = metrics.reject_throughput() / 1000.0;
  result.reply_ms = metrics.reply_latency_ms();
  result.p99_ms = to_ms(metrics.reply_latency.p99());
  return result;
}

}  // namespace

int main() {
  std::printf("=== Extension: cost-aware admission (Section 5.1 'further options') ===\n");
  std::printf("(80%% point ops + 20%% scans of up to 100 records; overload sweep)\n\n");

  harness::LoadConfig driver;
  driver.warmup = bench::warmup_duration();
  driver.measure = bench::measure_duration();

  harness::Table table({"clients", "test", "throughput[kreq/s]", "latency[ms]", "p99[ms]",
                        "rejects[kreq/s]"});
  MixResult aqm_hi, cost_hi;
  for (std::size_t clients : {25u, 50u, 100u, 200u}) {
    MixResult aqm = run_mix(false, clients, driver);
    MixResult cost = run_mix(true, clients, driver);
    if (clients == 200) {
      aqm_hi = aqm;
      cost_hi = cost;
    }
    table.add_row({harness::Table::fmt(std::uint64_t(clients)), "AQM (default)",
                   harness::Table::fmt(aqm.reply_kops), harness::Table::fmt(aqm.reply_ms, 3),
                   harness::Table::fmt(aqm.p99_ms, 3),
                   harness::Table::fmt(aqm.reject_kops, 2)});
    table.add_row({harness::Table::fmt(std::uint64_t(clients)), "CostAware",
                   harness::Table::fmt(cost.reply_kops),
                   harness::Table::fmt(cost.reply_ms, 3),
                   harness::Table::fmt(cost.p99_ms, 3),
                   harness::Table::fmt(cost.reject_kops, 2)});
  }
  bench::print_table(table);

  std::printf("shape checks:\n");
  std::printf(" - CostAware serves more operations under overload (%.1f vs %.1f kreq/s)"
              " -> %s\n",
              cost_hi.reply_kops, aqm_hi.reply_kops,
              cost_hi.reply_kops > aqm_hi.reply_kops ? "OK" : "MISS");
  std::printf(" - CostAware lowers overload latency (%.2f vs %.2f ms) -> %s\n",
              cost_hi.reply_ms, aqm_hi.reply_ms,
              cost_hi.reply_ms < aqm_hi.reply_ms ? "OK" : "MISS");
  return 0;
}
