// Simulator workloads.
//
//   sim-fig6-4x       the paper's Figure 6 point at 4x the knee: 200
//                     closed-loop clients (optimistic, 5 ms window, 50-100 ms
//                     rejection backoff) against IDEM with AQM, n=3, r=50
//   sim-leader-crash  open-loop Poisson load from pessimistic sessions while
//                     the leader crashes at a fixed time (Figure 10)
//
// The simulated span is fixed, so every sim-time metric repeats bit for
// bit for a seed. A run repeats the span until its wall-clock budget is
// used, checks that the repeats agree, and reports wall and CPU cost at
// their median over the repeats.
#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "harness/cluster.hpp"
#include "sim/fault_plan.hpp"

namespace perfbench {

using idem::kMillisecond;
using idem::kSecond;

namespace {

struct SimSpec {
  const char* name;
  bool closed;  ///< the paper's closed-loop client; else an open loop
  std::size_t sessions;
  double rate;  ///< open-loop arrivals per second
  Duration warmup;
  Duration measure;
  Duration crash_at;  ///< leader crash, from the start of the run (0: none)
};

const SimSpec kSimSpecs[] = {
    {"sim-fig6-4x", true, 200, 0, 500 * kMillisecond, 1500 * kMillisecond, 0},
    {"sim-leader-crash", false, 100, 10'000, 500 * kMillisecond, 3 * kSecond, kSecond},
};

constexpr Duration kSimSlo = 5 * kMillisecond;
constexpr Backoff kPaperBackoff{50 * kMillisecond, 100 * kMillisecond};
constexpr Duration kSimDrain = 10 * kSecond;

const SimSpec& sim_spec(const std::string& name) {
  for (const SimSpec& spec : kSimSpecs) {
    if (name == spec.name) return spec;
  }
  throw std::invalid_argument("unknown sim workload " + name);
}

idem::harness::ClusterConfig cluster_config(std::size_t sessions, bool closed,
                                            std::uint64_t seed, bool traced) {
  idem::harness::ClusterConfig config;
  config.protocol = idem::harness::Protocol::Idem;
  config.n = 3;
  config.f = 1;
  config.clients = sessions;
  config.reject_threshold = 50;
  config.seed = seed;
  config.idem_client.strategy = closed ? idem::core::IdemClientConfig::Strategy::Optimistic
                                       : idem::core::IdemClientConfig::Strategy::Pessimistic;
  config.obs.trace = traced;
  config.obs.trace_capacity = 1u << 20;
  return config;
}

app::KvStore& store_of(idem::harness::Cluster& cluster, std::size_t replica) {
  auto* store = dynamic_cast<app::KvStore*>(&cluster.idem_replica(replica)->state_machine());
  if (store == nullptr) throw std::runtime_error("replica state machine is not a KvStore");
  return *store;
}

struct SetUp {
  std::unique_ptr<idem::harness::Cluster> cluster;
  double seconds = 0;
  bool replied = false;
};

/// Builds the cluster and waits (in wall time) for its first REPLY: a
/// read of a preloaded key on session 0.
SetUp set_up(std::size_t sessions, bool closed, std::uint64_t seed, bool traced) {
  SetUp out;
  const std::int64_t t0 = host::wall_ns();
  out.cluster = std::make_unique<idem::harness::Cluster>(
      cluster_config(sessions, closed, seed, traced));
  app::KvCommand get;
  get.op = app::KvOp::Get;
  get.key = store_of(*out.cluster, 0).entries().begin()->first;
  // Shared with the callback, which outlives this function if it fires late.
  auto replied = std::make_shared<std::optional<bool>>();
  out.cluster->client(0).invoke(get.encode(), [replied](const idem::consensus::Outcome& outcome) {
    *replied = outcome.kind == idem::consensus::Outcome::Kind::Reply;
  });
  out.cluster->simulator().run_while([&replied] { return !replied->has_value(); });
  out.replied = replied->value_or(false);
  out.seconds = static_cast<double>(host::wall_ns() - t0) / 1e9;
  return out;
}

struct Counters {
  idem::sim::TrafficStats traffic;
  std::vector<idem::core::ReplicaStats> replicas;
};

Counters sample(idem::harness::Cluster& cluster) {
  Counters c;
  c.traffic = cluster.network().total_traffic();
  for (std::size_t i = 0; i < cluster.config().n; ++i) {
    c.replicas.push_back(cluster.idem_replica(i)->stats());
  }
  return c;
}

/// Re-arms itself at every due arrival of an open loop.
struct SimPacer {
  OpenLoop& generator;
  idem::sim::Simulator& sim;
  void arm() {
    const Time next = generator.next_due();
    if (next == idem::kTimeNever) return;
    sim.schedule_at(next, [this] {
      generator.pump();
      arm();
    });
  }
};

struct SimRun {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_us_per_op = 0;
  Report report;
  std::map<std::string, double> simtime;
  Validity validity;
  Ledger ledger;
  std::vector<std::pair<std::string, std::string>> initial_store;
  std::vector<idem::obs::TraceEvent> trace;
};

void simulate(const SimSpec& spec, std::uint64_t seed, bool traced, SimRun& run, Spans& spans) {
  const std::int64_t setup_start = host::wall_ns();
  SetUp setup = set_up(spec.sessions, spec.closed, seed, traced);
  spans.add("setup", setup_start, host::wall_ns(), traced ? "traced-run" : "run");
  run.setup_s = setup.seconds;
  idem::harness::Cluster& cluster = *setup.cluster;
  idem::sim::Simulator& sim = cluster.simulator();
  if (!setup.replied) run.validity.problems.push_back("setup read was not answered by a REPLY");

  run.ledger.index_requests = traced;
  for (const auto& [key, value] : store_of(cluster, 0).entries()) {
    run.ledger.oracle.allow(key, value);
    run.initial_store.emplace_back(key, value);
  }
  std::vector<Session> sessions(spec.sessions);
  for (std::size_t i = 0; i < spec.sessions; ++i) sessions[i].client = &cluster.client(i);
  sessions[0].onr = 1;  // the setup read

  const Window window{sim.now(), spec.warmup, spec.measure};
  const Time crash_time = window.start + spec.crash_at;
  if (spec.crash_at > 0) {
    cluster.apply(idem::sim::FaultPlan{idem::sim::Fault::crash(spec.crash_at,
                                                               idem::sim::Fault::kLeader)},
                  window.start);
  }

  const app::YcsbConfig workload = cluster.config().workload;
  std::unique_ptr<LoadGenerator> load;
  OpenLoop* open = nullptr;
  std::unique_ptr<SimPacer> pacer;
  if (spec.closed) {
    auto closed = std::make_unique<ClosedLoop>(sim, std::move(sessions), seed, workload,
                                               run.ledger, window, kPaperBackoff);
    closed->start();
    load = std::move(closed);
  } else {
    auto generator = std::make_unique<OpenLoop>(sim, std::move(sessions), seed, workload,
                                                run.ledger, spec.rate, spec.warmup,
                                                spec.measure);
    generator->start(window.start);
    open = generator.get();
    pacer = std::make_unique<SimPacer>(SimPacer{*generator, sim});
    pacer->arm();
    load = std::move(generator);
  }

  const std::int64_t wall0 = host::wall_ns();
  const std::int64_t cpu0 = host::process_cpu_ns();
  const std::uint64_t events0 = sim.events_executed();
  sim.run_until(window.measure_begin());
  const std::int64_t wall1 = host::wall_ns();
  const Counters before = sample(cluster);
  sim.run_until(window.end());
  const Counters after = sample(cluster);
  const std::int64_t wall2 = host::wall_ns();
  if (open != nullptr) open->pump();  // queue every arrival due before the end
  load->stop();
  const Time drain_limit = sim.now() + kSimDrain;
  sim.run_while([&] {
    return (load->in_flight() > 0 || (open != nullptr && open->backlog() > 0)) &&
           sim.now() < drain_limit;
  });
  const std::uint64_t events = sim.events_executed() - events0;
  const std::int64_t cpu_ns = host::process_cpu_ns() - cpu0;
  const std::int64_t wall3 = host::wall_ns();
  run.wall_s = static_cast<double>(wall3 - wall0) / 1e9;
  const char* parent = traced ? "traced-run" : "run";
  spans.add("warmup", wall0, wall1, parent);
  spans.add("window", wall1, wall2, parent);
  spans.add("drain", wall2, wall3, parent);

  // Correctness: every op resolved and well formed, every scheduled
  // arrival attempted, and every live replica holding the same store,
  // made only of values some client wrote.
  run.validity = check_ledger(run.ledger);
  if (open != nullptr) check_open_loop(*open, run.validity);
  sim.run_until(sim.now() + 50 * kMillisecond);  // followers apply what the leader answered
  const std::int64_t check_start = host::wall_ns();
  const app::KvStore* reference = nullptr;
  std::size_t active_at_end = 0;
  for (std::size_t i = 0; i < cluster.config().n; ++i) {
    idem::core::IdemReplica* replica = cluster.idem_replica(i);
    if (replica->crashed()) continue;
    active_at_end += replica->active_requests();
    const app::KvStore& store = store_of(cluster, i);
    if (reference == nullptr) {
      reference = &store;
      for (const auto& [key, value] : store.entries()) {
        if (!run.ledger.oracle.may_hold(ValueOracle::hash(key), value)) {
          run.validity.problems.push_back("store holds a value no client wrote: " + key);
          break;
        }
      }
    } else if (store.entries() != reference->entries()) {
      run.validity.problems.push_back("replica " + std::to_string(i) +
                                      " store differs from the first live replica");
    }
  }
  spans.add("check", check_start, host::wall_ns(), parent);

  // End-to-end metrics in sim time.
  Report& report = run.report;
  report_outcomes(run.ledger, spec.measure, kSimSlo, report);
  std::uint64_t resolved_total = 0, resolved_window = 0;
  Time first_reply_after_crash = -1;
  for (const OpRecord& op : run.ledger.ops) {
    if (op.completed < 0) continue;
    ++resolved_total;
    if (op.completed >= window.measure_begin() && op.completed < window.end()) ++resolved_window;
    if (spec.crash_at > 0 && op.outcome == Outcome::Reply && op.due >= crash_time &&
        (first_reply_after_crash < 0 || op.completed < first_reply_after_crash)) {
      first_reply_after_crash = op.completed;
    }
  }
  if (spec.crash_at > 0) {
    if (first_reply_after_crash < 0) {
      run.validity.problems.push_back("no REPLY after the leader crash");
    } else {
      report.set("outage_ms",
                 static_cast<double>(first_reply_after_crash - crash_time) / kMillisecond, "ms");
    }
  }
  run.cpu_us_per_op =
      resolved_total > 0 ? static_cast<double>(cpu_ns) / 1000.0 / static_cast<double>(resolved_total)
                         : 0.0;

  // Layer counters over the measured window.
  const double per_op = resolved_window > 0 ? 1.0 / static_cast<double>(resolved_window) : 0.0;
  report.set("sim.events", static_cast<double>(events), "count");
  report.set("sim.events_per_s", static_cast<double>(events) / run.wall_s, "1/s");
  report.set("sim.msgs_per_op",
             static_cast<double>(after.traffic.messages - before.traffic.messages) * per_op,
             "count", resolved_window);
  report.set("sim.bytes_per_op",
             static_cast<double>(after.traffic.bytes - before.traffic.bytes) * per_op, "B",
             resolved_window);
  std::uint64_t accepted = 0, rejected = 0, proposals = 0, forwards = 0, fetches = 0,
                reclaimed = 0, executed_max = 0, view_changes = 0;
  for (std::size_t i = 0; i < before.replicas.size(); ++i) {
    const idem::core::ReplicaStats& b = before.replicas[i];
    const idem::core::ReplicaStats& a = after.replicas[i];
    accepted += a.accepted - b.accepted;
    rejected += a.rejected - b.rejected;
    proposals += a.proposals_sent - b.proposals_sent;
    forwards += a.forwards_sent - b.forwards_sent;
    fetches += a.fetches_sent - b.fetches_sent;
    reclaimed += a.superseded_released - b.superseded_released;
    executed_max = std::max<std::uint64_t>(executed_max, a.executed - b.executed);
    view_changes = std::max<std::uint64_t>(view_changes, cluster.idem_replica(i)->stats().view_changes);
  }
  report.set("core.accept_pct",
             accepted + rejected > 0 ? 100.0 * static_cast<double>(accepted) /
                                           static_cast<double>(accepted + rejected)
                                     : 0.0,
             "%", accepted + rejected);
  report.set("core.ops_per_propose",
             proposals > 0 ? static_cast<double>(executed_max) / static_cast<double>(proposals) : 0.0,
             "count", proposals);
  report.set("core.forwards_per_kop", 1000.0 * static_cast<double>(forwards) * per_op, "count");
  report.set("core.fetches_per_kop", 1000.0 * static_cast<double>(fetches) * per_op, "count");
  report.set("core.slots_reclaimed", static_cast<double>(reclaimed), "count");
  report.set("core.active_at_end", static_cast<double>(active_at_end), "count");
  report.set("core.lagging_replicas", 0, "count");  // every live replica is compared
  report.set("view.changes", static_cast<double>(view_changes), "count");
  report.set("gen.backlog_max", open != nullptr ? static_cast<double>(open->backlog_max()) : 0.0,
             "count");

  for (const char* name : {"attempted", "goodput_kops", "slo_pct", "reject_pct", "fail_pct",
                           "reply_p50_ms", "reply_p99_ms", "reply_p999_ms", "reject_p50_ms",
                           "reject_p99_ms", "outage_ms", "sim.events", "sim.msgs_per_op"}) {
    if (report.has(name)) run.simtime[name] = report.get(name);
  }
  if (traced && cluster.trace() != nullptr) run.trace = cluster.trace()->snapshot();
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  for (const SimSpec& spec : kSimSpecs) {
    if (name == spec.name) return true;
  }
  return false;
}

RunResult run_sim(const RunOptions& options) {
  const SimSpec& spec = sim_spec(options.workload);
  RunResult result;
  const std::int64_t start = host::wall_ns();
  const host::CpuStat stat0 = host::cpu_stat();
  const auto elapsed_s = [start] { return static_cast<double>(host::wall_ns() - start) / 1e9; };

  // First repeat keeps its ledger for the replays; later ones only their
  // costs, and must agree with it bit for bit.
  SimRun first;
  simulate(spec, options.seed, false, first, result.spans);
  std::vector<double> setups{first.setup_s}, walls{first.wall_s}, cpus{first.cpu_us_per_op};
  result.validity = first.validity;
  // Set-ups alone, spread over the run between the repeats and each pinned
  // to the next CPU: the vCPUs of the host this was tuned on differ in
  // speed (a set-up took 15 ms on two of them, 21 ms on the other two),
  // and an unpinned process tends to stay on one for its whole life.
  const std::vector<int> allowed = host::allowed_cpus();
  const auto set_up_alone = [&] {
    const bool pinned =
        !allowed.empty() && host::pin(host::gettid(), {allowed[setups.size() % allowed.size()]});
    const std::int64_t t0 = host::wall_ns();
    SetUp extra = set_up(spec.sessions, spec.closed, options.seed, false);
    result.spans.add("setup", t0, host::wall_ns(), "setup-only");
    if (!extra.replied) result.validity.problems.push_back("setup read was not answered by a REPLY");
    setups.push_back(extra.seconds);
    if (pinned) host::pin(host::gettid(), allowed);
  };
  const double budget = options.trace ? 0 : options.seconds;
  while (elapsed_s() < budget) {
    SimRun again;
    simulate(spec, options.seed, false, again, result.spans);
    setups.push_back(again.setup_s);
    walls.push_back(again.wall_s);
    cpus.push_back(again.cpu_us_per_op);
    for (const std::string& p : again.validity.problems) result.validity.problems.push_back(p);
    if (again.simtime != first.simtime) {
      result.validity.problems.push_back("sim-time metrics differ between repeats of one seed");
    }
    while (static_cast<double>(setups.size()) < kSetups * std::min(1.0, elapsed_s() / budget)) {
      set_up_alone();
    }
  }
  while (setups.size() < static_cast<std::size_t>(kSetups)) set_up_alone();

  Report& report = result.report;
  report = first.report;
  report.set("setup_s", *std::min_element(setups.begin(), setups.end()), "s", setups.size());
  report.set("sim_wall_s", median(walls), "s", walls.size());
  report.set("cpu_us_per_op", median(cpus), "us", cpus.size());
  report.set("diag.reply_p99_ms", report.get("reply_p99_ms"), "ms");
  report.set("diag.reply_p999_ms", report.get("reply_p999_ms"), "ms");
  if (report.has("reject_p99_ms")) report.set("diag.reject_p99_ms", report.get("reject_p99_ms"), "ms");
  result.simtime = first.simtime;

  if (options.trace) {
    SimRun traced;
    simulate(spec, options.seed, true, traced, result.spans);
    for (const std::string& p : traced.validity.problems) result.validity.problems.push_back(p);
    if (traced.simtime != first.simtime) {
      result.validity.problems.push_back("tracing changed the simulated trajectory");
    }
    const std::int64_t fold_start = host::wall_ns();
    fold_trace(traced.trace, traced.ledger, 3, 1, report);
    result.spans.add("fold-trace", fold_start, host::wall_ns());
    report.set("obs.trace_overhead_pct",
               100.0 * (traced.cpu_us_per_op / report.get("cpu_us_per_op") - 1.0), "%");

    ReplayInput replay;
    replay.samples = &first.ledger.samples;
    replay.initial_store = first.initial_store;
    replay.ops_per_propose = report.get("core.ops_per_propose");
    replay.reject_threshold = 50;
    replay.expected_clients = spec.sessions;
    const std::int64_t replay_start = host::wall_ns();
    replay_layers(replay, report);
    result.spans.add("replay-layers", replay_start, host::wall_ns());
  }

  report.set("host.steal_pct", host::steal_pct(stat0, host::cpu_stat()), "%");
  // Layers a simulated run does not have: no TCP transport, no replica
  // threads, no generator thread of its own.
  for (const char* name : {"rpc.msgs_per_op", "rpc.msgs_per_write", "rpc.drops"}) {
    report.set(name, 0, "count");
  }
  report.set("rpc.bytes_per_op", 0, "B");
  for (const char* name : {"real.thread_cpu_max_pct", "real.thread_cpu_min_pct", "gen.cpu_pct"}) {
    report.set(name, 0, "%");
  }
  result.hygiene["mode"] = "sim";
  result.hygiene["repeats"] = std::to_string(walls.size());
  result.hygiene["pinned"] = "no (single simulator thread)";
  return result;
}

// ---------------------------------------------------------------------------
// Generator self-test
// ---------------------------------------------------------------------------

namespace {

struct StallCase {
  std::size_t sessions;
  std::size_t stalled;  ///< sessions cut off from every replica
  bool expect_backlog;
  bool expect_unresolved;
};

std::vector<std::string> run_stall_case(const StallCase& c) {
  idem::harness::Cluster cluster(cluster_config(c.sessions, false, 7, false));
  idem::sim::Simulator& sim = cluster.simulator();
  for (std::size_t s = 0; s < c.stalled; ++s) {
    cluster.apply(idem::sim::FaultPlan{idem::sim::Fault::partition(
        0, {idem::sim::fault_endpoint_client(static_cast<std::uint32_t>(s))}, {0, 1, 2})});
  }
  Ledger ledger;
  for (const auto& [key, value] : store_of(cluster, 0).entries()) ledger.oracle.allow(key, value);
  std::vector<Session> sessions(c.sessions);
  for (std::size_t i = 0; i < c.sessions; ++i) sessions[i].client = &cluster.client(i);
  OpenLoop generator(sim, std::move(sessions), 7, cluster.config().workload, ledger, 2000,
                     100 * kMillisecond, 400 * kMillisecond);
  generator.start(sim.now() + kMillisecond);
  const Window window = generator.window();
  SimPacer pacer{generator, sim};
  pacer.arm();
  sim.run_until(window.end());
  generator.pump();
  generator.stop();
  const Time limit = sim.now() + 2 * kSecond;
  sim.run_while([&] {
    return (generator.in_flight() > 0 || generator.backlog() > 0) && sim.now() < limit;
  });

  Validity validity = check_ledger(ledger);
  check_open_loop(generator, validity);
  std::vector<std::string> failures;
  const std::string label = std::to_string(c.stalled) + " of " + std::to_string(c.sessions) +
                            " sessions stalled: ";
  bool backlog = false, attempted = false, unresolved = false;
  for (const std::string& p : validity.problems) {
    backlog |= p.starts_with("backlog not drained");
    attempted |= p.starts_with("attempted ");
    unresolved |= p.find("unresolved") != std::string::npos;
  }
  if (backlog != c.expect_backlog) failures.push_back(label + "backlog check wrong");
  if (attempted != c.expect_backlog) failures.push_back(label + "attempted-vs-scheduled check wrong");
  if (unresolved != c.expect_unresolved) failures.push_back(label + "unresolved check wrong");
  if (generator.scheduled() == 0) failures.push_back(label + "no arrivals scheduled");
  // Nothing was dropped or re-timed: one ledger op per arrival, each issued
  // no earlier than it was due.
  for (const OpRecord& op : ledger.ops) {
    if (op.issued >= 0 && op.issued < op.due) {
      failures.push_back(label + "an arrival was issued before it was due");
      break;
    }
  }
  return failures;
}

}  // namespace

std::vector<std::string> generator_selftest() {
  std::vector<std::string> failures;
  // Healthy: valid. One of four stalled: the others carry every arrival,
  // but the stalled op never resolves. The only session stalled: the
  // FIFO never drains and arrivals go unattempted.
  for (const StallCase& c : {StallCase{4, 0, false, false}, StallCase{4, 1, false, true},
                             StallCase{1, 1, true, true}}) {
    for (std::string& f : run_stall_case(c)) failures.push_back(std::move(f));
  }
  return failures;
}

}  // namespace perfbench
