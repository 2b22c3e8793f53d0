// Real-mode workload: real::RealCluster over loopback TCP (n=3, r=8,
// real-mode defaults, no injected delay).
//
//   real-overload  16 pessimistic sessions (2r) in a closed loop: each
//                  re-issues the moment its op ends in a REPLY and 1-2 ms
//                  after a rejection, so the acceptance test always sees
//                  more requests than it admits
//
// Closed, not open: an open loop's fixed offered rate sits at a point
// relative to the cluster's capacity that moves with the host's speed.
// Offered 36 kreq/s, the generator thread ran at 85% of a CPU and the
// leader's at 94%, both queues near saturation, and reply p50's quartile
// spread over ten runs reached 33-40% of its median. The generator cannot
// offer much more (its thread costs about as much per op as a replica's),
// so it cannot push the cluster deep into overload. The closed loop keeps
// the cluster saturated at any host speed, where latency and goodput
// follow CPU speed one for one instead of amplifying it.
//
// Threads: the three replica loops plus this thread as the generator,
// pinned one per CPU. Sessions share the generator's one outbound
// connection per replica; each replica dials back one connection per
// session (the protocol's reply path).
#include <algorithm>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "consensus/addresses.hpp"
#include "idem/client.hpp"
#include "real/cluster.hpp"
#include "rpc/event_loop.hpp"
#include "rpc/tcp_transport.hpp"

namespace perfbench {

using idem::kMillisecond;
using idem::kSecond;

namespace {

constexpr const char* kWorkload = "real-overload";
constexpr std::size_t kSessions = 16;
constexpr Backoff kRejectBackoff{kMillisecond, 2 * kMillisecond};
constexpr std::size_t kRejectThreshold = 8;
/// YCSB records preloaded on every replica (fig6_real's size). Each
/// checkpoint (every 256 instances) serializes the whole store on the loop
/// thread; at 10k records that stalls every replica for ~8 ms.
constexpr std::uint64_t kRecords = 1000;
constexpr Duration kRealSlo = 1 * kMillisecond;
constexpr Duration kWarmup = 250 * kMillisecond;
/// A run measures kRounds fresh deployments, each for a kRounds-th of the
/// run's seconds, and reports every figure at its median over them, so a
/// burst of stolen CPU sets a few rounds rather than the run.
constexpr int kRounds = 16;
/// The traced deployment's measured span: with its warm-up, every
/// lifecycle event (about 7 per op at the leader) fits the trace rings.
constexpr Duration kTracedSpan = 250 * kMillisecond;
constexpr std::size_t kTraceCapacity = 1u << 19;
constexpr Duration kDrain = 5 * kSecond;

/// Skips the event-queue hop per delivered REPLY/REJECT where the client
/// node offers it: real transport, no modelled service time.
template <typename Node>
void dispatch_inline(Node& node) {
  if constexpr (requires { node.set_inline_dispatch(true); }) node.set_inline_dispatch(true);
}

/// One cluster plus the generator's endpoint: loop, transport, sessions.
class Deployment {
 public:
  Deployment(std::uint64_t seed, bool traced, const std::vector<int>& cpus);
  ~Deployment() {
    // Replicas stop first; then the generator's sockets close.
    cluster->shutdown();
    clients.clear();
    transport.reset();
    loop.reset();
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  std::unique_ptr<idem::real::RealCluster> cluster;
  std::unique_ptr<idem::rpc::EventLoop> loop;
  std::unique_ptr<idem::rpc::TcpTransport> transport;
  std::unique_ptr<idem::obs::TraceRecorder> recorder;
  std::vector<std::unique_ptr<idem::core::IdemClient>> clients;
  std::vector<int> replica_tids;
  bool pinned = true;
  bool replied = false;
  double setup_s = 0;
};

Deployment::Deployment(std::uint64_t seed, bool traced, const std::vector<int>& cpus) {
  idem::real::RealClusterConfig config;
  config.n = 3;
  config.f = 1;
  config.reject_threshold = kRejectThreshold;
  config.seed = seed;
  config.expected_clients = kSessions;
  config.preload = true;
  config.workload.record_count = kRecords;
  config.trace = traced;
  config.trace_capacity = kTraceCapacity;
  idem::Rng key_rng(seed, 0);
  const std::string first_key = app::YcsbWorkload(config.workload, key_rng).key_for(0);
  const std::vector<int> threads_before = host::thread_ids();

  // Setup: construction to the first REPLY (a read of a preloaded key).
  const std::int64_t t0 = host::wall_ns();
  cluster = std::make_unique<idem::real::RealCluster>(config);
  cluster->start();
  for (int tid : host::thread_ids()) {
    if (!std::binary_search(threads_before.begin(), threads_before.end(), tid)) {
      replica_tids.push_back(tid);
    }
  }
  for (std::size_t i = 0; i < replica_tids.size(); ++i) {
    pinned &= !cpus.empty() && host::pin(replica_tids[i], {cpus[(i + 1) % cpus.size()]});
  }
  loop = std::make_unique<idem::rpc::EventLoop>(seed, cluster->epoch());
  transport = std::make_unique<idem::rpc::TcpTransport>(*loop);
  const std::vector<idem::rpc::PeerAddress> addresses = cluster->replica_addresses();
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    transport->set_remote(
        idem::consensus::replica_address(idem::ReplicaId{static_cast<std::uint32_t>(i)}),
        addresses[i]);
  }
  idem::core::IdemClientConfig client_config = cluster->client_config();
  client_config.strategy = idem::core::IdemClientConfig::Strategy::Pessimistic;
  if (traced) {
    recorder = std::make_unique<idem::obs::TraceRecorder>(config.trace_capacity);
    client_config.trace = recorder.get();
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    clients.push_back(std::make_unique<idem::core::IdemClient>(*loop, *transport,
                                                               idem::ClientId{s}, client_config));
    dispatch_inline(*clients.back());
  }
  app::KvCommand get;
  get.op = app::KvOp::Get;
  get.key = first_key;
  auto done = std::make_shared<bool>(false);  // shared with the callback
  clients[0]->invoke(get.encode(), [this, done](const idem::consensus::Outcome& outcome) {
    *done = true;
    replied = outcome.kind == idem::consensus::Outcome::Kind::Reply;
  });
  const Time limit = loop->now() + 10 * kSecond;
  while (!*done && loop->now() < limit) loop->run_for(kMillisecond);
  setup_s = static_cast<double>(host::wall_ns() - t0) / 1e9;
}

/// Counters read at the edges of the measured window.
struct Probe {
  Time at = 0;
  std::int64_t wall = 0;
  std::int64_t process_cpu = 0;
  std::int64_t generator_cpu = 0;
  std::vector<std::int64_t> replica_cpu;
  host::CpuStat stat;
  std::vector<idem::core::ReplicaStats> replicas;
  std::vector<idem::rpc::TransportStats> transports;  ///< replicas, then the generator
};

Probe probe(Deployment& d) {
  Probe p;
  p.at = d.loop->now();
  p.wall = host::wall_ns();
  p.process_cpu = host::process_cpu_ns();
  p.generator_cpu = host::self_thread_cpu_ns();
  for (int tid : d.replica_tids) p.replica_cpu.push_back(host::thread_cpu_ns(tid));
  p.stat = host::cpu_stat();
  for (std::size_t i = 0; i < d.cluster->n(); ++i) {
    p.replicas.push_back(d.cluster->replica_stats(i));
    p.transports.push_back(d.cluster->transport_stats(i));
  }
  p.transports.push_back(d.transport->stats());
  return p;
}

/// Reads a few preloaded keys back through the protocol after the drain.
/// Besides checking the answers, the new instances show a replica that
/// fell behind (missing bodies already collected elsewhere) its gap, which
/// it closes with a checkpoint transfer.
bool read_back(Deployment& d, const std::vector<std::pair<std::string, std::string>>& keys,
               const ValueOracle& oracle) {
  constexpr std::size_t kReads = 64;
  struct Read {
    bool done = false;
    bool ok = false;
  };
  for (std::size_t i = 0; i < kReads && i < keys.size(); ++i) {
    auto idle = std::find_if(d.clients.begin(), d.clients.end(),
                             [](const auto& client) { return !client->busy(); });
    if (idle == d.clients.end()) return false;
    const std::string& key = keys[i * keys.size() / kReads].first;
    app::KvCommand get;
    get.op = app::KvOp::Get;
    get.key = key;
    // Shared with the callback, which may outlive this wait.
    auto read = std::make_shared<Read>();
    (*idle)->invoke(get.encode(), [read, &oracle, key](const idem::consensus::Outcome& outcome) {
      read->done = true;
      if (outcome.kind != idem::consensus::Outcome::Kind::Reply) return;
      try {
        const app::KvResult result = app::KvResult::decode(outcome.result);
        read->ok = result.ok() && result.values.size() == 1 &&
                   oracle.may_hold(ValueOracle::hash(key), result.values[0]);
      } catch (const std::exception&) {
        read->ok = false;
      }
    });
    const Time limit = d.loop->now() + 2 * kSecond;
    while (!read->done && d.loop->now() < limit) d.loop->run_for(kMillisecond);
    if (!read->ok) return false;
  }
  return true;
}

/// Waits (up to 3 s) until no replica has queued work and every execution
/// frontier stood still for 100 ms, then returns the replicas' state.
std::vector<idem::real::RealCluster::Quiescence> settle(Deployment& d) {
  std::vector<idem::real::RealCluster::Quiescence> quiet(d.cluster->n()), last = quiet;
  for (int attempt = 0, stable = 0; attempt < 150 && stable < 5; ++attempt) {
    bool still = true;
    for (std::size_t i = 0; i < quiet.size(); ++i) {
      quiet[i] = d.cluster->quiescence(i);
      still &= quiet[i].queue == 0 && quiet[i].next_execute == last[i].next_execute;
    }
    stable = still ? stable + 1 : 0;
    last = quiet;
    d.loop->run_for(20 * kMillisecond);
  }
  return quiet;
}

struct Measured {
  Report report;
  Validity validity;
  Ledger ledger;
  std::vector<std::pair<std::string, std::string>> initial_store;
  std::vector<idem::obs::TraceEvent> trace;
  double cpu_us_per_op = 0;
};

void measure(Deployment& d, std::uint64_t seed, Duration span, Measured& out, Spans& spans,
             const char* parent) {
  std::size_t lagging = 0;
  idem::rpc::EventLoop& loop = *d.loop;
  out.ledger.index_requests = d.recorder != nullptr;
  out.initial_store = d.cluster->dump_store(0);
  for (const auto& [key, value] : out.initial_store) out.ledger.oracle.allow(key, value);
  std::vector<Session> sessions(d.clients.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) sessions[i].client = d.clients[i].get();
  sessions[0].onr = 1;  // the setup read

  const Window window{loop.now() + kMillisecond, kWarmup, span};
  ClosedLoop generator(loop, std::move(sessions), seed, d.cluster->config().workload, out.ledger,
                       window, kRejectBackoff);
  generator.start();

  std::optional<Probe> begin, end;
  loop.schedule_at(window.measure_begin(), [&] { begin = probe(d); });
  loop.schedule_at(window.end(), [&] { end = probe(d); });
  const std::int64_t wall0 = host::wall_ns();
  loop.run_for(window.end() - loop.now() + kMillisecond);
  while (!end) loop.run_for(kMillisecond);
  const std::int64_t wall1 = host::wall_ns();

  generator.stop();
  const Time drain_limit = loop.now() + kDrain;
  while (generator.in_flight() > 0 && loop.now() < drain_limit) loop.run_for(kMillisecond);
  const std::int64_t wall2 = host::wall_ns();
  spans.add("warmup+window", wall0, wall1, parent);
  spans.add("drain", wall1, wall2, parent);

  // Correctness: the ledger and generator checks, then the stores.
  out.validity = check_ledger(out.ledger);
  if (!d.replied) out.validity.problems.push_back("setup read was not answered by a REPLY");
  if (!read_back(d, out.initial_store, out.ledger.oracle)) {
    out.validity.problems.push_back("read-back after the drain was not answered correctly");
  }
  const std::vector<idem::real::RealCluster::Quiescence> quiet = settle(d);
  // Replicas at the execution frontier must hold identical stores, made
  // only of values some client wrote. A replica behind the frontier holds
  // a prefix this check cannot compare; it is counted as lagging.
  std::uint64_t frontier = 0;
  for (const auto& q : quiet) frontier = std::max(frontier, q.next_execute);
  std::vector<std::size_t> at_frontier;
  for (std::size_t i = 0; i < quiet.size(); ++i) {
    if (quiet[i].next_execute == frontier) at_frontier.push_back(i);
  }
  lagging = quiet.size() - at_frontier.size();
  if (at_frontier.size() < 2) {
    out.validity.problems.push_back("fewer than f+1 replicas reached the execution frontier");
  }
  const auto reference = d.cluster->dump_store(at_frontier.front());
  for (const auto& [key, value] : reference) {
    if (!out.ledger.oracle.may_hold(ValueOracle::hash(key), value)) {
      out.validity.problems.push_back("store holds a value no client wrote: " + key);
      break;
    }
  }
  for (std::size_t i = 1; i < at_frontier.size(); ++i) {
    if (d.cluster->dump_store(at_frontier[i]) != reference) {
      out.validity.problems.push_back("replica " + std::to_string(at_frontier[i]) +
                                      " store differs at the same execution frontier");
    }
  }
  spans.add("check", wall2, host::wall_ns(), parent);
  if (d.recorder) {
    for (auto& part : d.cluster->trace_snapshots()) {
      out.trace.insert(out.trace.end(), part.begin(), part.end());
    }
    const auto client_side = d.recorder->snapshot();
    out.trace.insert(out.trace.end(), client_side.begin(), client_side.end());
  }

  // End-to-end metrics in wall time.
  Report& report = out.report;
  report_outcomes(out.ledger, span, kRealSlo, report);
  std::uint64_t resolved = 0;
  for (const OpRecord& op : out.ledger.ops) {
    if (op.completed >= begin->at && op.completed < end->at) ++resolved;
  }
  const double window_ns = static_cast<double>(end->wall - begin->wall);
  const double cluster_cpu_ns = static_cast<double>((end->process_cpu - begin->process_cpu) -
                                                    (end->generator_cpu - begin->generator_cpu));
  out.cpu_us_per_op = resolved > 0 ? cluster_cpu_ns / 1000.0 / static_cast<double>(resolved) : 0.0;
  report.set("cpu_us_per_op", out.cpu_us_per_op, "us", resolved);

  // Layers: replica threads, generator, transport, core.
  double thread_max = 0, thread_min = 0;
  for (std::size_t i = 0; i < d.replica_tids.size(); ++i) {
    const double pct =
        100.0 * static_cast<double>(end->replica_cpu[i] - begin->replica_cpu[i]) / window_ns;
    thread_max = i == 0 ? pct : std::max(thread_max, pct);
    thread_min = i == 0 ? pct : std::min(thread_min, pct);
  }
  report.set("real.thread_cpu_max_pct", thread_max, "%");
  report.set("real.thread_cpu_min_pct", thread_min, "%");
  report.set("gen.cpu_pct",
             100.0 * static_cast<double>(end->generator_cpu - begin->generator_cpu) / window_ns, "%");
  report.set("gen.backlog_max", 0, "count");  // a closed loop queues nothing
  report.set("host.steal_pct", host::steal_pct(begin->stat, end->stat), "%");
  report.set("diag.reply_p99_ms", report.get("reply_p99_ms"), "ms");
  report.set("diag.reply_p999_ms", report.get("reply_p999_ms"), "ms");
  if (report.has("reject_p99_ms")) report.set("diag.reject_p99_ms", report.get("reject_p99_ms"), "ms");

  const double per_op = resolved > 0 ? 1.0 / static_cast<double>(resolved) : 0.0;
  std::uint64_t messages = 0, bytes = 0, writes = 0, drops = 0;
  for (std::size_t i = 0; i < end->transports.size(); ++i) {
    const idem::rpc::TransportStats& a = end->transports[i];
    const idem::rpc::TransportStats& b = begin->transports[i];
    messages += a.messages_sent - b.messages_sent;
    bytes += a.bytes_sent - b.bytes_sent;
    writes += a.write_syscalls - b.write_syscalls;
    drops += (a.dropped - b.dropped) + (a.send_queue_overflows - b.send_queue_overflows) +
             (a.decode_errors - b.decode_errors);
  }
  report.set("rpc.msgs_per_op", static_cast<double>(messages) * per_op, "count", resolved);
  report.set("rpc.bytes_per_op", static_cast<double>(bytes) * per_op, "B", resolved);
  report.set("rpc.msgs_per_write",
             writes > 0 ? static_cast<double>(messages) / static_cast<double>(writes) : 0.0, "count",
             writes);
  report.set("rpc.drops", static_cast<double>(drops), "count");

  std::uint64_t accepted = 0, rejected = 0, proposals = 0, forwards = 0, fetches = 0,
                reclaimed = 0, executed_max = 0, view_changes = 0, active = 0;
  for (std::size_t i = 0; i < end->replicas.size(); ++i) {
    const idem::core::ReplicaStats& a = end->replicas[i];
    const idem::core::ReplicaStats& b = begin->replicas[i];
    accepted += a.accepted - b.accepted;
    rejected += a.rejected - b.rejected;
    proposals += a.proposals_sent - b.proposals_sent;
    forwards += a.forwards_sent - b.forwards_sent;
    fetches += a.fetches_sent - b.fetches_sent;
    reclaimed += a.superseded_released - b.superseded_released;
    executed_max = std::max<std::uint64_t>(executed_max, a.executed - b.executed);
    view_changes = std::max<std::uint64_t>(view_changes, a.view_changes);
    active += quiet[i].active;
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
  report.set("core.active_at_end", static_cast<double>(active), "count");
  report.set("core.lagging_replicas", static_cast<double>(lagging), "count");
  report.set("view.changes", static_cast<double>(view_changes), "count");
}

}  // namespace

bool is_real_workload(const std::string& name) { return name == kWorkload; }

RunResult run_real(const RunOptions& options) {
  RunResult result;
  const std::vector<int> cpus = host::allowed_cpus();
  const bool generator_pinned = !cpus.empty() && host::pin(host::gettid(), {cpus[0]});
  const Duration round_span =
      static_cast<Duration>(options.seconds * static_cast<double>(kSecond)) / kRounds;

  // Rounds: fresh deployments with seeds derived from the run's seed; the
  // first keeps its ledger for the layer replays. Set-ups alone are spread
  // between the rounds.
  std::vector<double> setups;
  std::vector<Report> rounds;
  Measured first;
  bool replicas_pinned = true;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t seed = idem::derive_seed(options.seed, static_cast<std::uint64_t>(round));
    Measured later;
    Measured& m = round == 0 ? first : later;
    {
      const std::int64_t t0 = host::wall_ns();
      Deployment d(seed, false, cpus);
      setups.push_back(d.setup_s);
      replicas_pinned &= d.pinned && d.replica_tids.size() == d.cluster->n();
      result.spans.add("setup", t0, t0 + static_cast<std::int64_t>(d.setup_s * 1e9), "round");
      measure(d, seed, round_span, m, result.spans, "round");
    }
    rounds.push_back(m.report);
    for (const char* name : {"reply_p50_ms", "slo_pct", "goodput_kops", "host.steal_pct"}) {
      std::string& list = result.hygiene[std::string("round.") + name];
      list += (list.empty() ? "" : ",") + std::to_string(m.report.get(name));
    }
    for (const std::string& p : m.validity.problems) result.validity.problems.push_back(p);
    result.validity.attempted += m.validity.attempted;
    result.validity.failed += m.validity.failed;
    while (setups.size() < static_cast<std::size_t>(kSetups * (round + 1) / kRounds)) {
      const std::int64_t t0 = host::wall_ns();
      Deployment d(options.seed, false, cpus);
      if (!d.replied) result.validity.problems.push_back("setup read was not answered by a REPLY");
      setups.push_back(d.setup_s);
      result.spans.add("setup", t0, host::wall_ns(), "setup-only");
    }
  }
  Report& report = result.report;
  report = summarize_rounds(rounds);
  report.set("setup_s", *std::min_element(setups.begin(), setups.end()), "s", setups.size());

  if (options.trace) {
    Measured traced;
    {
      Deployment d(options.seed, true, cpus);
      measure(d, options.seed, kTracedSpan, traced, result.spans, "traced-run");
    }
    for (const std::string& p : traced.validity.problems) result.validity.problems.push_back(p);
    result.validity.attempted += traced.validity.attempted;
    result.validity.failed += traced.validity.failed;
    const std::int64_t fold_start = host::wall_ns();
    fold_trace(traced.trace, traced.ledger, 3, 1, report);
    result.spans.add("fold-trace", fold_start, host::wall_ns());
    const double plain_cpu = report.get("cpu_us_per_op");
    report.set("obs.trace_overhead_pct",
               plain_cpu > 0 ? 100.0 * (traced.cpu_us_per_op / plain_cpu - 1.0) : 0.0, "%");
    ReplayInput replay;
    replay.samples = &first.ledger.samples;
    replay.initial_store = first.initial_store;
    replay.ops_per_propose = report.get("core.ops_per_propose");
    replay.reject_threshold = kRejectThreshold;
    replay.expected_clients = kSessions;
    const std::int64_t replay_start = host::wall_ns();
    replay_layers(replay, report);
    result.spans.add("replay-layers", replay_start, host::wall_ns());
  }

  // No simulator in real mode.
  for (const char* name : {"sim.events", "sim.msgs_per_op"}) report.set(name, 0, "count");
  report.set("sim.events_per_s", 0, "1/s");
  report.set("sim.bytes_per_op", 0, "B");
  result.hygiene["mode"] = "real";
  result.hygiene["rounds"] = std::to_string(rounds.size());
  result.hygiene["pinned"] = generator_pinned && replicas_pinned ? "yes" : "no";
  std::string cpu_list;
  for (int cpu : cpus) cpu_list += (cpu_list.empty() ? "" : ",") + std::to_string(cpu);
  result.hygiene["cpus"] = cpu_list;
  return result;
}

}  // namespace perfbench
