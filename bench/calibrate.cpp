// Calibration helper: runs a single load point and prints the measured
// saturation numbers plus simulator statistics. Not part of the paper's
// experiment set; useful when tuning cost-model constants.
//
// Usage: calibrate [protocol] [clients] [seconds] [reject_threshold]
//   protocol: idem | idem-nopr | idem-noaqm | paxos | paxos-lbr | smart
#include <cstdio>
#include <cstring>

#include "bench_util.hpp"

using namespace idem;

int main(int argc, char** argv) {
  harness::Protocol protocol = harness::Protocol::Idem;
  if (argc > 1) {
    if (!std::strcmp(argv[1], "paxos")) protocol = harness::Protocol::Paxos;
    else if (!std::strcmp(argv[1], "paxos-lbr")) protocol = harness::Protocol::PaxosLBR;
    else if (!std::strcmp(argv[1], "smart")) protocol = harness::Protocol::Smart;
    else if (!std::strcmp(argv[1], "idem-nopr")) protocol = harness::Protocol::IdemNoPR;
    else if (!std::strcmp(argv[1], "idem-noaqm")) protocol = harness::Protocol::IdemNoAQM;
  }
  std::size_t clients = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 50;
  double seconds = argc > 3 ? std::atof(argv[3]) : 3.0;
  std::size_t rt = argc > 4 ? std::strtoul(argv[4], nullptr, 10) : 50;

  harness::ClusterConfig config;
  config.protocol = protocol;
  config.clients = clients;
  config.reject_threshold = rt;
  harness::Cluster cluster(config);

  harness::LoadConfig driver_config;
  driver_config.warmup = kSecond;
  driver_config.measure = static_cast<Duration>(seconds * kSecond);
  harness::RunMetrics metrics = harness::drive(cluster, driver_config);

  std::printf("%s  clients=%zu rt=%zu\n", harness::protocol_name(protocol), clients, rt);
  std::printf("  replies:  %.2f kreq/s  latency %.3f ms (stddev %.3f, p99 %.3f)\n",
              metrics.reply_throughput() / 1000.0, metrics.reply_latency_ms(),
              metrics.reply_latency_stddev_ms(), to_ms(metrics.reply_latency.p99()));
  std::printf("  rejects:  %.2f kreq/s  latency %.3f ms (stddev %.3f)\n",
              metrics.reject_throughput() / 1000.0, metrics.reject_latency_ms(),
              metrics.reject_latency_stddev_ms());
  std::printf("  timeouts: %llu\n", static_cast<unsigned long long>(metrics.timeouts));
  std::printf("  traffic:  client %.1f MB, replica %.1f MB\n",
              metrics.client_traffic.bytes / 1e6, metrics.replica_traffic.bytes / 1e6);
  return 0;
}
