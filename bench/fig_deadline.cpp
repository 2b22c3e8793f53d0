// Deadline-aware admission sweep: tail-drop vs AQM vs deadline-aware
// (+EDF) under a heavy-tailed (Pareto) service-cost workload.
//
// Every operation carries a latency budget (request_deadline +/- jitter).
// The policies differ only in what a replica does with that information:
//
//   tail-drop       ignores budgets; accepts until r_now = r.
//   AQM             ignores budgets; the paper's prioritized AQM.
//   deadline-aware  core::DeadlineAware — an online queue-wait estimator
//                   (windowed service-time quantile x depth) rejects
//                   budgets it cannot meet (RejectReason::
//                   DeadlineUnmeetable) — plus the EDF service discipline,
//                   so admitted requests drain earliest-due-first.
//
// A rejected operation is the admission policy doing its job: the client
// backs off and retries, having spent one RTT. A reply past its budget is
// the failure mode — the system burned a full execution on work the
// caller could no longer use. Under >= 2x overload with Pareto tails the
// deadline-aware stack should beat both baselines on p99.9 reply latency
// AND deadline-miss rate; that is the shape this benchmark asserts.
//
// Emits machine-readable JSON (default ./BENCH_deadline.json, override
// with IDEM_DEADLINE_JSON) so CI can gate on the win; see EXPERIMENTS.md.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "idem/acceptance.hpp"

using namespace idem;

namespace {

enum class Policy { TailDrop, Aqm, DeadlineAware };

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::TailDrop: return "tail-drop";
    case Policy::Aqm: return "AQM";
    case Policy::DeadlineAware: return "deadline-aware";
  }
  return "?";
}

struct SweepPoint {
  std::size_t clients = 0;
  bench::LoadPoint load;
};

struct SweepResult {
  Policy policy = Policy::TailDrop;
  std::vector<SweepPoint> points;
};

}  // namespace

int main() {
  std::printf("=== Deadline-aware admission: tail-drop vs AQM vs deadline-aware+EDF ===\n");
  std::printf("(IDEM, YCSB update-heavy, Pareto service tails, 8 ms +/- 4 ms budgets;\n");
  std::printf(" baseline 1x = 50 clients)\n\n");

  const std::vector<Policy> policies = {Policy::TailDrop, Policy::Aqm,
                                        Policy::DeadlineAware};
  const std::vector<std::size_t> client_counts = {25, 50, 100, 200};

  harness::LoadConfig driver;
  driver.warmup = bench::warmup_duration();
  driver.measure = bench::measure_duration();
  // Every operation carries a budget tight enough that overload queueing
  // actually threatens it.
  driver.request_deadline = 8 * kMillisecond;
  driver.deadline_jitter = 4 * kMillisecond;

  std::vector<SweepResult> results;
  for (Policy policy : policies) {
    harness::ClusterConfig base;
    base.protocol = harness::Protocol::Idem;
    base.reject_threshold = 50;
    // Heavy-tailed per-op service costs: ~10% of costs draw a Pareto
    // multiplier (alpha 1.3 => infinite variance). Queueing amplifies
    // each burst into a latency spike that FIFO spreads across every
    // queued request behind it.
    base.idem.costs.tail_prob = 0.1;
    base.idem.costs.pareto_alpha = 1.3;
    base.idem.costs.pareto_scale = 6.0;

    switch (policy) {
      case Policy::TailDrop:
        base.acceptance_factory = [](std::size_t) {
          return std::unique_ptr<core::AcceptanceTest>(new core::TailDrop());
        };
        break;
      case Policy::Aqm:
        // Protocol::Idem default: make_default_acceptance (AQM).
        break;
      case Policy::DeadlineAware: {
        core::DeadlineAware::Params params;
        params.quantile = 0.95;
        params.safety_margin = 1 * kMillisecond;
        base.acceptance_factory = [params](std::size_t) {
          return std::unique_ptr<core::AcceptanceTest>(new core::DeadlineAware(params));
        };
        base.discipline = sim::DisciplineKind::Edf;
        break;
      }
    }

    SweepResult result;
    result.policy = policy;
    harness::Table table({"policy", "clients", "throughput[kreq/s]", "rejects[kreq/s]",
                          "p99[ms]", "p99.9[ms]", "miss[%]"});
    for (std::size_t clients : client_counts) {
      SweepPoint point;
      point.clients = clients;
      point.load = bench::run_load_point(base, clients, driver);
      table.add_row({policy_name(policy), harness::Table::fmt(std::uint64_t(clients)),
                     harness::Table::fmt(point.load.reply_kops),
                     harness::Table::fmt(point.load.reject_kops),
                     harness::Table::fmt(point.load.reply_p99_ms, 3),
                     harness::Table::fmt(point.load.reply_p999_ms, 3),
                     harness::Table::fmt(point.load.deadline_miss_pct, 2)});
      result.points.push_back(point);
    }
    bench::print_table(table);
    results.push_back(std::move(result));
  }

  const char* path = std::getenv("IDEM_DEADLINE_JSON");
  if (path == nullptr || *path == '\0') path = "BENCH_deadline.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig_deadline\",\n  \"protocol\": \"IDEM\",\n");
  std::fprintf(f, "  \"deadline_ms\": 8, \"deadline_jitter_ms\": 4,\n");
  std::fprintf(f, "  \"sweeps\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    std::fprintf(f, "    {\n      \"policy\": \"%s\",\n      \"points\": [\n",
                 policy_name(r.policy));
    for (std::size_t j = 0; j < r.points.size(); ++j) {
      const SweepPoint& p = r.points[j];
      std::fprintf(f,
                   "        {\"clients\": %zu, \"reply_kops\": %.2f, \"reject_kops\": %.2f, "
                   "\"p99_ms\": %.3f, \"p999_ms\": %.3f, \"miss_pct\": %.3f}%s\n",
                   p.clients, p.load.reply_kops, p.load.reject_kops, p.load.reply_p99_ms,
                   p.load.reply_p999_ms, p.load.deadline_miss_pct,
                   j + 1 < r.points.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);

  // Shape checks (mirrored by tools/ci.sh via bench_compare on the JSON):
  // at >= 2x overload (100 and 200 clients) the deadline-aware stack must
  // beat BOTH budget-blind baselines on p99.9 reply latency and on the
  // deadline-miss rate, while still delivering useful goodput.
  bool ok = true;
  const SweepResult& da = results.back();
  for (std::size_t j = 2; j < client_counts.size(); ++j) {
    const SweepPoint& mine = da.points[j];
    for (std::size_t i = 0; i + 1 < results.size(); ++i) {
      const SweepPoint& other = results[i].points[j];
      const char* vs = policy_name(results[i].policy);
      std::printf("%zu clients vs %s: p99.9 %.2f/%.2f ms, miss %.2f/%.2f%% %s\n",
                  mine.clients, vs, mine.load.reply_p999_ms, other.load.reply_p999_ms,
                  mine.load.deadline_miss_pct, other.load.deadline_miss_pct,
                  mine.load.reply_p999_ms < other.load.reply_p999_ms &&
                          mine.load.deadline_miss_pct < other.load.deadline_miss_pct
                      ? "[better]"
                      : "[NOT better]");
      if (mine.load.reply_p999_ms >= other.load.reply_p999_ms) ok = false;
      if (mine.load.deadline_miss_pct >= other.load.deadline_miss_pct) ok = false;
    }
    if (mine.load.reply_kops <= 0.0) {
      std::printf("%zu clients: deadline-aware delivered no goodput\n", mine.clients);
      ok = false;
    }
  }
  if (!ok) {
    std::printf("shape check FAILED\n");
    return 1;
  }
  std::printf("shape check passed\n");
  return 0;
}
