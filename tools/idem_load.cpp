// idem-load: command-line load generator for any protocol in this
// repository. Runs one configurable closed-loop experiment and prints a
// summary table (and optionally the timeline and CSV).
//
//   idem-load --protocol idem --clients 200 --seconds 10 --rt 50
//   idem-load --protocol paxos --clients 100 --crash-leader-at 5
//   idem-load --protocol idem --loss 0.1 --timeline
//
// Exit code 0 on success, 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "harness/cluster.hpp"
#include "harness/load.hpp"
#include "harness/table.hpp"
#include "obs/chrome_trace.hpp"

using namespace idem;

namespace {

struct Options {
  harness::Protocol protocol = harness::Protocol::Idem;
  std::size_t clients = 50;
  std::size_t reject_threshold = 50;
  double seconds = 5.0;
  double warmup = 1.0;
  std::uint64_t seed = 1;
  double loss = 0.0;
  std::optional<double> crash_leader_at;
  std::optional<double> crash_follower_at;
  bool timeline = false;
  bool csv = false;
  std::string trace_out;    ///< Chrome trace-event JSON (Perfetto-loadable)
  std::string metrics_out;  ///< JSONL metrics samples
  double metrics_interval = 0.1;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --protocol P       idem | idem-nopr | idem-noaqm | paxos | paxos-lbr |\n"
      "                     smart | smart-pr              (default: idem)\n"
      "  --clients N        closed-loop clients           (default: 50)\n"
      "  --rt N             reject threshold r            (default: 50)\n"
      "  --seconds S        measured seconds              (default: 5)\n"
      "  --warmup S         warm-up seconds               (default: 1)\n"
      "  --seed N           experiment seed               (default: 1)\n"
      "  --loss P           message drop probability      (default: 0)\n"
      "  --crash-leader-at S    crash the leader S seconds into the run\n"
      "  --crash-follower-at S  crash a follower S seconds into the run\n"
      "  --timeline         print the 500 ms reply/reject timeline\n"
      "  --csv              print the summary as CSV\n"
      "  --trace-out F      write a Chrome/Perfetto trace-event JSON to F\n"
      "  --metrics-out F    write sampled per-replica metrics (JSONL) to F\n"
      "  --metrics-interval S   metrics sample period in seconds (default: 0.1)\n",
      argv0);
}

std::optional<harness::Protocol> parse_protocol(const char* name) {
  if (!std::strcmp(name, "idem")) return harness::Protocol::Idem;
  if (!std::strcmp(name, "idem-nopr")) return harness::Protocol::IdemNoPR;
  if (!std::strcmp(name, "idem-noaqm")) return harness::Protocol::IdemNoAQM;
  if (!std::strcmp(name, "paxos")) return harness::Protocol::Paxos;
  if (!std::strcmp(name, "paxos-lbr")) return harness::Protocol::PaxosLBR;
  if (!std::strcmp(name, "smart")) return harness::Protocol::Smart;
  if (!std::strcmp(name, "smart-pr")) return harness::Protocol::SmartPR;
  return std::nullopt;
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--protocol")) {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      auto protocol = parse_protocol(v);
      if (!protocol) return std::nullopt;
      options.protocol = *protocol;
    } else if (!std::strcmp(argv[i], "--clients")) {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      options.clients = std::strtoul(v, nullptr, 10);
    } else if (!std::strcmp(argv[i], "--rt")) {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      options.reject_threshold = std::strtoul(v, nullptr, 10);
    } else if (!std::strcmp(argv[i], "--seconds")) {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      options.seconds = std::atof(v);
    } else if (!std::strcmp(argv[i], "--warmup")) {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      options.warmup = std::atof(v);
    } else if (!std::strcmp(argv[i], "--seed")) {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(argv[i], "--loss")) {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      options.loss = std::atof(v);
    } else if (!std::strcmp(argv[i], "--crash-leader-at")) {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      options.crash_leader_at = std::atof(v);
    } else if (!std::strcmp(argv[i], "--crash-follower-at")) {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      options.crash_follower_at = std::atof(v);
    } else if (!std::strcmp(argv[i], "--timeline")) {
      options.timeline = true;
    } else if (!std::strcmp(argv[i], "--csv")) {
      options.csv = true;
    } else if (!std::strcmp(argv[i], "--trace-out")) {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      options.trace_out = v;
    } else if (!std::strcmp(argv[i], "--metrics-out")) {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      options.metrics_out = v;
    } else if (!std::strcmp(argv[i], "--metrics-interval")) {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      options.metrics_interval = std::atof(v);
    } else {
      return std::nullopt;
    }
  }
  if (options.clients == 0 || options.seconds <= 0) return std::nullopt;
  if (!options.metrics_out.empty() && options.metrics_interval <= 0) return std::nullopt;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  auto options = parse_args(argc, argv);
  if (!options) {
    usage(argv[0]);
    return 2;
  }

  harness::ClusterConfig config;
  config.protocol = options->protocol;
  config.clients = options->clients;
  config.reject_threshold = options->reject_threshold;
  config.seed = options->seed;
  config.network.drop_probability = options->loss;
  config.obs.trace = !options->trace_out.empty();
  if (!options->metrics_out.empty()) {
    config.obs.metrics_interval =
        static_cast<Duration>(options->metrics_interval * kSecond);
  }
  harness::Cluster cluster(config);

  harness::LoadConfig driver;
  driver.warmup = static_cast<Duration>(options->warmup * kSecond);
  driver.measure = static_cast<Duration>(options->seconds * kSecond);

  sim::FaultPlan crash_plan;
  if (options->crash_leader_at) {
    crash_plan.add(sim::Fault::crash(static_cast<Time>(*options->crash_leader_at * kSecond),
                                     sim::Fault::kLeader));
  }
  if (options->crash_follower_at) {
    crash_plan.add(sim::Fault::crash(
        static_cast<Time>(*options->crash_follower_at * kSecond), sim::Fault::kFollower));
  }
  if (!crash_plan.empty()) cluster.apply(crash_plan);

  harness::RunMetrics metrics = harness::drive(cluster, driver);

  harness::Table table({"metric", "value"});
  table.add_row({"protocol", harness::protocol_name(options->protocol)});
  table.add_row({"clients", harness::Table::fmt(std::uint64_t(options->clients))});
  table.add_row({"throughput [kreq/s]", harness::Table::fmt(metrics.reply_throughput() / 1000.0)});
  table.add_row({"latency mean [ms]", harness::Table::fmt(metrics.reply_latency_ms(), 3)});
  table.add_row({"latency stddev [ms]", harness::Table::fmt(metrics.reply_latency_stddev_ms(), 3)});
  table.add_row({"latency p50 [ms]", harness::Table::fmt(metrics.reply_p50_ms(), 3)});
  table.add_row({"latency p90 [ms]", harness::Table::fmt(metrics.reply_p90_ms(), 3)});
  table.add_row({"latency p99 [ms]", harness::Table::fmt(metrics.reply_p99_ms(), 3)});
  table.add_row({"latency p99.9 [ms]", harness::Table::fmt(metrics.reply_p999_ms(), 3)});
  table.add_row({"rejects [kreq/s]", harness::Table::fmt(metrics.reject_throughput() / 1000.0, 2)});
  table.add_row({"reject latency [ms]", harness::Table::fmt(metrics.reject_latency_ms(), 3)});
  table.add_row({"timeouts", harness::Table::fmt(metrics.timeouts)});
  table.add_row({"client traffic [MB]",
                 harness::Table::fmt(static_cast<double>(metrics.client_traffic.bytes) / 1e6, 1)});
  table.add_row({"replica traffic [MB]",
                 harness::Table::fmt(static_cast<double>(metrics.replica_traffic.bytes) / 1e6, 1)});
  if (options->csv) {
    table.print_csv();
  } else {
    table.print();
  }

  if (options->timeline) {
    std::printf("\ntimeline (500 ms buckets):\n");
    harness::Table timeline({"t[s]", "reply[kreq/s]", "latency[ms]", "reject[kreq/s]"});
    auto replies = metrics.reply_series.rows();
    auto rejects = metrics.reject_series.rows();
    Duration window = metrics.reply_series.window();
    std::size_t per_bucket = static_cast<std::size_t>((500 * kMillisecond) / window);
    std::size_t rows = std::max(replies.size(), rejects.size());
    for (std::size_t start = 0; start < rows; start += per_bucket) {
      std::uint64_t reply_count = 0, reject_count = 0;
      double latency_sum = 0;
      for (std::size_t i = start; i < std::min(start + per_bucket, rows); ++i) {
        if (i < replies.size()) {
          reply_count += replies[i].count;
          latency_sum += replies[i].value_sum;
        }
        if (i < rejects.size()) reject_count += rejects[i].count;
      }
      timeline.add_row(
          {harness::Table::fmt(to_sec(static_cast<Time>(start) * window), 1),
           harness::Table::fmt(reply_count / 0.5 / 1000.0),
           harness::Table::fmt(reply_count ? latency_sum / reply_count : 0.0, 3),
           harness::Table::fmt(reject_count / 0.5 / 1000.0, 2)});
    }
    if (options->csv) {
      timeline.print_csv();
    } else {
      timeline.print();
    }
  }

  if (!options->trace_out.empty()) {
    FILE* f = std::fopen(options->trace_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", options->trace_out.c_str());
      return 1;
    }
    obs::TraceRecorder* recorder = cluster.trace();
    obs::ChromeTraceStats stats = obs::write_chrome_trace(f, recorder->snapshot());
    std::fclose(f);
    std::fprintf(stderr, "trace: %llu events (%llu overwritten) -> %s: %llu spans, %llu instants\n",
                 static_cast<unsigned long long>(recorder->total_recorded()),
                 static_cast<unsigned long long>(recorder->overwritten()),
                 options->trace_out.c_str(),
                 static_cast<unsigned long long>(stats.spans),
                 static_cast<unsigned long long>(stats.instants));
  }
  if (!options->metrics_out.empty()) {
    FILE* f = std::fopen(options->metrics_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", options->metrics_out.c_str());
      return 1;
    }
    cluster.metrics()->write_jsonl(f);
    std::fclose(f);
    std::fprintf(stderr, "metrics: %zu samples x %zu series -> %s\n",
                 cluster.metrics()->rows(), cluster.metrics()->series_count(),
                 options->metrics_out.c_str());
  }
  return 0;
}
