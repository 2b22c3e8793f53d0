// Ablations for IDEM's design choices (beyond the paper's figures):
//
//   A. Forward timeout (Section 5.2 "delayed forwarding"): how the delay
//      before relaying accepted requests trades forwarding traffic
//      against the latency of divergently-accepted requests.
//   B. Rejected-request cache (Section 5.2): disabling the cache forces
//      FETCH round trips / forwards for every divergent acceptance.
//   C. REQUIRE aggregation: flushing accepted ids to the leader per
//      request vs. micro-batched.
//   D. PROPOSE batching: agreement batch size vs. throughput.
//   E. AQM time slice: fairness across clients (per-client success-share
//      spread) as the prioritization rotation slows down.
//
// Each section prints a table plus the metric the design choice targets.
#include <cstdio>

#include "bench_util.hpp"

using namespace idem;

namespace {

struct AblationResult {
  bench::LoadPoint point;
  std::uint64_t forwards = 0;
  std::uint64_t fetches = 0;
  std::uint64_t replica_bytes = 0;
};

AblationResult run_one(harness::ClusterConfig config, std::size_t clients,
                       harness::LoadConfig driver) {
  config.clients = clients;
  harness::Cluster cluster(config);
  harness::RunMetrics metrics = harness::drive(cluster, driver);

  AblationResult result;
  result.point.clients = clients;
  result.point.reply_kops = metrics.reply_throughput() / 1000.0;
  result.point.reject_kops = metrics.reject_throughput() / 1000.0;
  result.point.reply_ms = metrics.reply_latency_ms();
  result.point.reply_p99_ms = to_ms(metrics.reply_latency.p99());
  result.replica_bytes = metrics.replica_traffic.bytes;
  for (std::size_t i = 0; i < config.n; ++i) {
    if (auto* replica = cluster.idem_replica(i)) {
      result.forwards += replica->stats().forwards_sent;
      result.fetches += replica->stats().fetches_sent;
    }
  }
  return result;
}

}  // namespace

int main() {
  harness::LoadConfig driver;
  driver.warmup = bench::warmup_duration();
  driver.measure = bench::measure_duration();

  // -- A: forward timeout ------------------------------------------------
  std::printf("=== Ablation A: forward timeout (delayed forwarding, Section 5.2) ===\n");
  std::printf("(IDEM_noAQM at 2x overload: tail drop makes replicas accept diverging\n"
              " subsets, so divergent requests wait out the forward timeout)\n\n");
  {
    harness::Table table({"forward-timeout[ms]", "throughput[kreq/s]", "latency[ms]",
                          "p99[ms]", "forwards", "replica-MB"});
    for (Duration timeout : {kMillisecond, 5 * kMillisecond, 10 * kMillisecond,
                             50 * kMillisecond}) {
      harness::ClusterConfig config;
      config.protocol = harness::Protocol::IdemNoAQM;
      config.reject_threshold = 50;
      config.idem.forward_timeout = timeout;
      AblationResult r = run_one(config, 100, driver);
      table.add_row({harness::Table::fmt(to_ms(timeout), 0),
                     harness::Table::fmt(r.point.reply_kops),
                     harness::Table::fmt(r.point.reply_ms, 3),
                     harness::Table::fmt(r.point.reply_p99_ms, 3),
                     harness::Table::fmt(r.forwards),
                     harness::Table::fmt(static_cast<double>(r.replica_bytes) / 1e6, 1)});
    }
    bench::print_table(table);
    std::printf("expected: a too-short timeout floods the network with relays (and the\n"
                "extra traffic costs CPU and latency); very long timeouts leave divergent\n"
                "requests blocked. The paper's 10 ms sits on the flat part.\n\n");
  }

  // -- B: rejected-request cache ------------------------------------------
  std::printf("=== Ablation B: rejected-request cache (Section 5.2) ===\n\n");
  {
    harness::Table table({"cache-size", "throughput[kreq/s]", "latency[ms]", "p99[ms]",
                          "forwards", "fetches"});
    for (std::size_t cache : {std::size_t{0}, std::size_t{16}, std::size_t{1024}}) {
      harness::ClusterConfig config;
      config.protocol = harness::Protocol::Idem;
      config.reject_threshold = 50;
      config.idem.rejected_cache_size = cache;
      AblationResult r = run_one(config, 200, driver);
      table.add_row({harness::Table::fmt(std::uint64_t(cache)),
                     harness::Table::fmt(r.point.reply_kops),
                     harness::Table::fmt(r.point.reply_ms, 3),
                     harness::Table::fmt(r.point.reply_p99_ms, 3),
                     harness::Table::fmt(r.forwards), harness::Table::fmt(r.fetches)});
    }
    bench::print_table(table);
    std::printf("expected: without the cache, requests rejected here but accepted\n"
                "elsewhere need a forward/fetch before execution.\n\n");
  }

  // -- C: REQUIRE aggregation ----------------------------------------------
  std::printf("=== Ablation C: REQUIRE aggregation ===\n\n");
  {
    harness::Table table({"flush", "batch", "throughput[kreq/s]", "latency[ms]"});
    struct Setting {
      Duration interval;
      std::size_t batch;
      const char* label;
    };
    for (Setting s : {Setting{0, 1, "immediate"}, Setting{50 * kMicrosecond, 32, "50us/32"},
                      Setting{500 * kMicrosecond, 256, "500us/256"}}) {
      harness::ClusterConfig config;
      config.protocol = harness::Protocol::Idem;
      config.reject_threshold = 50;
      config.idem.require_flush_interval = s.interval;
      config.idem.require_batch_max = s.batch;
      AblationResult r = run_one(config, 50, driver);
      table.add_row({s.label, harness::Table::fmt(std::uint64_t(s.batch)),
                     harness::Table::fmt(r.point.reply_kops),
                     harness::Table::fmt(r.point.reply_ms, 3)});
    }
    bench::print_table(table);
    std::printf("expected: per-request REQUIREs burn leader CPU (lower max throughput);\n"
                "very coarse aggregation adds latency at low load.\n\n");
  }

  // -- D: PROPOSE batch size ------------------------------------------------
  std::printf("=== Ablation D: PROPOSE batch size ===\n\n");
  {
    harness::Table table({"batch_max", "throughput[kreq/s]", "latency[ms]"});
    for (std::size_t batch : {std::size_t{1}, std::size_t{8}, std::size_t{32},
                              std::size_t{128}}) {
      harness::ClusterConfig config;
      config.protocol = harness::Protocol::Idem;
      config.reject_threshold = 50;
      config.idem.batch_max = batch;
      AblationResult r = run_one(config, 50, driver);
      table.add_row({harness::Table::fmt(std::uint64_t(batch)),
                     harness::Table::fmt(r.point.reply_kops),
                     harness::Table::fmt(r.point.reply_ms, 3)});
    }
    bench::print_table(table);
  }

  // -- E: AQM time slice ------------------------------------------------
  std::printf("=== Ablation E: AQM time slice vs. client fairness ===\n\n");
  {
    harness::Table table({"time-slice[s]", "throughput[kreq/s]", "reject[kreq/s]",
                          "client success-share spread"});
    for (Duration slice : {500 * kMillisecond, 2 * kSecond, 8 * kSecond}) {
      harness::ClusterConfig config;
      config.protocol = harness::Protocol::Idem;
      config.reject_threshold = 50;
      config.idem.aqm_time_slice = slice;
      config.clients = 150;
      harness::Cluster cluster(config);

      // Count per-client successes directly.
      std::vector<std::uint64_t> successes(config.clients, 0);
      harness::LoadConfig fair_driver = driver;
      // Give every slice configuration the same number of full rotations:
      // 3 groups x slice x 2 rotations.
      fair_driver.measure = std::max<Duration>(driver.measure, 6 * slice);
      // The driver does not expose per-client stats; sample them from the
      // replicas' duplicate table after the run instead.
      harness::RunMetrics metrics = harness::drive(cluster, fair_driver);
      for (std::size_t c = 0; c < config.clients; ++c) {
        if (auto last = cluster.idem_replica(0)->last_executed(ClientId{c})) {
          successes[c] = last->value;
        }
      }
      std::uint64_t lo = UINT64_MAX, hi = 0;
      for (auto s : successes) {
        lo = std::min(lo, s);
        hi = std::max(hi, s);
      }
      double spread = lo > 0 ? static_cast<double>(hi) / static_cast<double>(lo) : 0.0;
      table.add_row({harness::Table::fmt(to_sec(slice), 1),
                     harness::Table::fmt(metrics.reply_throughput() / 1000.0),
                     harness::Table::fmt(metrics.reject_throughput() / 1000.0, 2),
                     harness::Table::fmt(spread, 2)});
    }
    bench::print_table(table);
    std::printf("spread = max/min of per-client completed operations; close to 1 means\n"
                "the rotating prioritization shares capacity fairly (paper Section 5.1).\n");
  }
  return 0;
}
