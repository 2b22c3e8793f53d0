#include "check/chaos.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "app/counter.hpp"
#include "app/kv_store.hpp"
#include "common/rng.hpp"
#include "core/acceptance.hpp"

namespace idem::check {

namespace {

/// Search budget per run: generous for test-sized histories, but bounded
/// so a pathological all-timeout partition reports "budget exceeded"
/// instead of hanging the sweep.
constexpr std::size_t kMaxSearchStates = 4'000'000;

std::string hash_string(std::uint64_t hash) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace

std::optional<harness::Protocol> protocol_from_name(const std::string& name) {
  if (name == "idem") return harness::Protocol::Idem;
  if (name == "idem-nopr") return harness::Protocol::IdemNoPR;
  if (name == "idem-noaqm") return harness::Protocol::IdemNoAQM;
  if (name == "paxos") return harness::Protocol::Paxos;
  if (name == "paxos-lbr") return harness::Protocol::PaxosLBR;
  if (name == "smart") return harness::Protocol::Smart;
  if (name == "smart-pr") return harness::Protocol::SmartPR;
  return std::nullopt;
}

json::Value ChaosConfig::to_json() const {
  json::Object obj;
  obj["protocol"] = json::Value(protocol);
  obj["app"] = json::Value(app);
  obj["seed"] = json::Value(seed);
  obj["clients"] = json::Value(static_cast<std::uint64_t>(clients));
  obj["ops_per_client"] = json::Value(static_cast<std::uint64_t>(ops_per_client));
  obj["keys"] = json::Value(static_cast<std::uint64_t>(keys));
  obj["reject_threshold"] = json::Value(static_cast<std::uint64_t>(reject_threshold));
  if (rejected_cache > 0) {
    obj["rejected_cache"] = json::Value(static_cast<std::uint64_t>(rejected_cache));
  }
  obj["read_fraction"] = json::Value(read_fraction);
  obj["think_min_ns"] = json::Value(static_cast<std::int64_t>(think_min));
  obj["think_max_ns"] = json::Value(static_cast<std::int64_t>(think_max));
  obj["op_timeout_ns"] = json::Value(static_cast<std::int64_t>(op_timeout));
  obj["horizon_ns"] = json::Value(static_cast<std::int64_t>(horizon));
  // Deadline knobs are emitted only when armed, so artifacts from
  // deadline-less runs (the whole existing corpus) stay byte-stable.
  if (discipline != "fifo") obj["discipline"] = json::Value(discipline);
  if (request_deadline > 0) {
    obj["request_deadline_ns"] = json::Value(static_cast<std::int64_t>(request_deadline));
  }
  if (deadline_aware) obj["deadline_aware"] = json::Value(true);
  obj["plan"] = plan.to_json();
  return json::Value(std::move(obj));
}

ChaosConfig ChaosConfig::from_json(const json::Value& value) {
  ChaosConfig config;
  config.protocol = value.get_or<std::string>("protocol", "idem");
  config.app = value.get_or<std::string>("app", "kv");
  config.seed = value.get_or<std::uint64_t>("seed", 1);
  config.clients = value.get_or<std::uint64_t>("clients", 4);
  config.ops_per_client = value.get_or<std::uint64_t>("ops_per_client", 16);
  config.keys = value.get_or<std::uint64_t>("keys", 3);
  config.reject_threshold = value.get_or<std::uint64_t>("reject_threshold", 5);
  config.rejected_cache = value.get_or<std::uint64_t>("rejected_cache", 0);
  config.read_fraction = value.get_or<double>("read_fraction", 0.35);
  config.think_min = value.get_or<std::int64_t>("think_min_ns", 50 * kMillisecond);
  config.think_max = value.get_or<std::int64_t>("think_max_ns", 300 * kMillisecond);
  config.op_timeout = value.get_or<std::int64_t>("op_timeout_ns", 2 * kSecond);
  config.horizon = value.get_or<std::int64_t>("horizon_ns", 60 * kSecond);
  config.discipline = value.get_or<std::string>("discipline", "fifo");
  config.request_deadline = value.get_or<std::int64_t>("request_deadline_ns", 0);
  config.deadline_aware = value.get_or<bool>("deadline_aware", false);
  if (value.contains("plan")) config.plan = sim::FaultPlan::from_json(value.at("plan"));
  return config;
}

namespace {

/// Mirrors tests' ExecutionRecorder, minus gtest: collects (sqn, id)
/// execution logs from every replica type.
class ExecLog {
 public:
  explicit ExecLog(harness::Cluster& cluster) {
    logs_.resize(cluster.config().n);
    for (std::size_t i = 0; i < logs_.size(); ++i) {
      auto hook = [this, i](SeqNum sqn, RequestId id) { logs_[i].push_back({sqn, id}); };
      if (auto* r = cluster.idem_replica(i)) {
        r->on_execute = hook;
      } else if (auto* p = cluster.paxos_replica(i)) {
        p->on_execute = hook;
      } else if (auto* s = cluster.smart_replica(i)) {
        s->on_execute = hook;
      }
    }
  }

  const std::vector<std::vector<std::pair<SeqNum, RequestId>>>& logs() const { return logs_; }

 private:
  std::vector<std::vector<std::pair<SeqNum, RequestId>>> logs_;
};

std::vector<std::byte> make_command(const ChaosConfig& config, Rng& rng, std::uint64_t client,
                                    std::uint64_t seq) {
  const std::string key = "k" + std::to_string(rng.uniform_int(0, static_cast<std::int64_t>(
                                                                      config.keys) - 1));
  const double coin = rng.next_double();
  if (config.app == "counter") {
    app::CounterCommand cmd;
    cmd.name = key;
    if (coin < config.read_fraction) {
      cmd.op = app::CounterOp::Read;
    } else {
      cmd.op = app::CounterOp::Add;
      cmd.delta = rng.uniform_int(1, 5);
    }
    return cmd.encode();
  }
  app::KvCommand cmd;
  cmd.key = key;
  if (coin < config.read_fraction) {
    cmd.op = app::KvOp::Get;
  } else if (coin < config.read_fraction + 0.1) {
    cmd.op = app::KvOp::Delete;
  } else {
    cmd.op = app::KvOp::Put;
    // Unique value per invoke: gives the checker discriminative power.
    cmd.value = "c" + std::to_string(client) + "-s" + std::to_string(seq);
  }
  return cmd.encode();
}

/// Cross-checks the replica execution logs against the history.
void check_exec_logs(const ExecLog& exec, const History& history, ChaosResult& result) {
  std::ostringstream err;
  std::set<RequestId> executed_anywhere;
  for (std::size_t r = 0; r < exec.logs().size(); ++r) {
    std::set<RequestId> seen;
    for (const auto& [sqn, id] : exec.logs()[r]) {
      if (!seen.insert(id).second) {
        err << "replica " << r << ": " << to_string(id) << " executed twice; ";
      }
      executed_anywhere.insert(id);
    }
  }
  // Agreement, tolerant to batching and state-transfer catch-up skips: any
  // two replicas execute their *common* requests in the same order.
  for (std::size_t a = 0; a < exec.logs().size(); ++a) {
    for (std::size_t b = a + 1; b < exec.logs().size(); ++b) {
      std::map<RequestId, std::size_t> pos_b;
      for (std::size_t i = 0; i < exec.logs()[b].size(); ++i) {
        pos_b.emplace(exec.logs()[b][i].second, i);
      }
      std::size_t last = 0;
      bool first = true;
      for (const auto& [sqn, id] : exec.logs()[a]) {
        auto it = pos_b.find(id);
        if (it == pos_b.end()) continue;
        if (!first && it->second <= last) {
          err << "replicas " << a << " and " << b << " disagree on execution order around "
              << to_string(id) << "; ";
          break;
        }
        last = it->second;
        first = false;
      }
    }
  }
  for (const Op& op : history.ops()) {
    RequestId id{ClientId{op.client}, OpNum{op.seq}};
    const bool executed = executed_anywhere.count(id) > 0;
    if (op.result == Op::Result::Ok && !executed) {
      err << to_string(id) << " replied Ok but never executed; ";
    }
    if (op.result == Op::Result::Rejected && op.definitive_reject && executed) {
      err << to_string(id) << " was definitively rejected (all n) yet executed; ";
    }
  }
  result.exec_error = err.str();
  result.exec_ok = result.exec_error.empty();
}

/// No live replica that runs the intake phase (IDEM, SMaRt+PR) may still
/// count an id in r_now that its own client table counts as executed:
/// nothing can release that slot any more.
void check_slot_leaks(harness::Cluster& cluster, ChaosResult& result) {
  std::ostringstream err;
  for (std::size_t r = 0; r < cluster.config().n; ++r) {
    const core::Intake* intake = nullptr;
    if (const core::IdemReplica* idem = cluster.idem_replica(r); idem && !idem->crashed()) {
      intake = &idem->intake();
    } else if (const smart::SmartPrReplica* pr = cluster.smart_pr_replica(r);
               pr && !pr->crashed()) {
      intake = &pr->intake();
    }
    if (intake == nullptr) continue;
    const std::vector<RequestId> leaked = intake->leaked_slots();
    if (leaked.empty()) continue;
    err << "replica " << r << " holds " << leaked.size()
        << " r_now slot(s) of executed requests (first " << to_string(leaked.front()) << "); ";
  }
  result.exec_error += err.str();
  result.exec_ok = result.exec_error.empty();
}

}  // namespace

ChaosResult run_chaos(const ChaosConfig& config) {
  harness::ClusterConfig cluster_config;
  auto protocol = protocol_from_name(config.protocol);
  if (!protocol) throw std::runtime_error("chaos: unknown protocol '" + config.protocol + "'");
  cluster_config.protocol = *protocol;
  cluster_config.clients = config.clients;
  cluster_config.reject_threshold = config.reject_threshold;
  cluster_config.seed = config.seed;
  cluster_config.preload = false;
  if (config.app == "counter") {
    cluster_config.store_factory = [] { return std::make_unique<app::CounterService>(); };
  } else if (config.app == "kv") {
    cluster_config.store_factory = [] { return std::make_unique<app::KvStore>(); };
  } else {
    throw std::runtime_error("chaos: unknown app '" + config.app + "'");
  }
  if (config.rejected_cache > 0) {
    cluster_config.idem.rejected_cache_size = config.rejected_cache;
  }
  if (config.discipline == "edf") {
    cluster_config.discipline = sim::DisciplineKind::Edf;
  } else if (config.discipline != "fifo") {
    throw std::runtime_error("chaos: unknown discipline '" + config.discipline + "'");
  }
  if (config.deadline_aware) {
    cluster_config.acceptance_factory = [](std::size_t) {
      return std::unique_ptr<core::AcceptanceTest>(
          new core::DeadlineAware(core::DeadlineAware::Params{}));
    };
  }
  // Fast failover so crashes resolve well inside the horizon.
  cluster_config.idem.viewchange_timeout = 300 * kMillisecond;
  cluster_config.paxos.viewchange_timeout = 300 * kMillisecond;
  cluster_config.paxos.heartbeat_interval = 100 * kMillisecond;
  cluster_config.idem_client.retry_interval = 200 * kMillisecond;
  cluster_config.idem_client.operation_timeout = config.op_timeout;

  harness::Cluster cluster(cluster_config);
  ExecLog exec(cluster);
  cluster.apply(config.plan);

  ChaosResult result;
  History& history = result.history;

  struct ClientState {
    Rng rng{0, 0};
    std::uint64_t issued = 0;     ///< invokes started
    std::uint64_t completed = 0;  ///< outcomes observed
  };
  std::vector<ClientState> states(config.clients);
  for (std::size_t c = 0; c < config.clients; ++c) {
    states[c].rng = Rng(config.seed, 0x51A05u + c);
  }

  bool recording = true;
  std::function<void(std::size_t)> issue = [&](std::size_t c) {
    ClientState& state = states[c];
    if (!recording || state.issued >= config.ops_per_client) return;
    const std::uint64_t seq = ++state.issued;
    std::vector<std::byte> command = make_command(config, state.rng, c, seq);
    if (config.request_deadline > 0) {
      cluster.client(c).set_request_deadline(config.request_deadline);
    }
    const std::size_t index = history.begin(c, seq, command, cluster.simulator().now());
    cluster.client(c).invoke(std::move(command), [&, c, index](const consensus::Outcome& o) {
      ClientState& st = states[c];
      ++st.completed;
      if (recording) {
        Op::Result r = Op::Result::Ok;
        switch (o.kind) {
          case consensus::Outcome::Kind::Reply:
            r = Op::Result::Ok;
            break;
          case consensus::Outcome::Kind::Rejected:
            r = Op::Result::Rejected;
            break;
          case consensus::Outcome::Kind::Timeout:
            r = Op::Result::Timeout;
            break;
        }
        history.complete(index, r, cluster.simulator().now(), o.result, o.definitive_failure);
      }
      // Think time paces the workload across the fault schedule; rejected
      // clients additionally back off (rejection = overload signal).
      Duration delay = config.think_min +
                       st.rng.uniform_int(0, std::max<Duration>(0, config.think_max -
                                                                       config.think_min));
      if (o.kind == consensus::Outcome::Kind::Rejected) delay += 20 * kMillisecond;
      cluster.simulator().schedule_after(delay, [&, c] { issue(c); });
    });
  };
  for (std::size_t c = 0; c < config.clients; ++c) issue(c);

  cluster.simulator().run_while([&] {
    if (cluster.simulator().now() >= config.horizon) return false;
    for (const ClientState& state : states) {
      if (state.completed < config.ops_per_client) return true;
    }
    return false;
  });
  recording = false;
  // Let in-flight agreement and lagging replicas drain so the execution
  // logs are as complete as the simulation can make them.
  cluster.simulator().run_for(kSecond);

  result.ok = history.count(Op::Result::Ok);
  result.rejected = history.count(Op::Result::Rejected);
  result.timeouts = history.count(Op::Result::Timeout);
  result.open = history.count(Op::Result::Open);
  result.history_hash = history.hash();

  auto model = make_model(config.app);
  result.check = check_linearizable(history, *model, kMaxSearchStates);
  check_exec_logs(exec, history, result);
  check_slot_leaks(cluster, result);
  return result;
}

sim::FaultPlan random_plan(std::uint64_t seed, const PlanGenConfig& gen) {
  Rng rng(seed, 0xC4A05u);
  sim::FaultPlan plan;
  const std::size_t count = 1 + static_cast<std::size_t>(rng.uniform_int(
                                    0, static_cast<std::int64_t>(gen.max_faults) - 1));

  std::set<std::uint32_t> crashed;
  Time t = gen.start;
  const Duration step = gen.spread / static_cast<Duration>(count + 1);
  for (std::size_t i = 0; i < count; ++i) {
    t = std::min(t + step / 2 + rng.uniform_int(0, step), gen.start + gen.spread);
    const Duration window =
        50 * kMillisecond +
        rng.uniform_int(0, std::max<Duration>(0, gen.max_window - 50 * kMillisecond));

    // Pick a kind the current state allows.
    for (int attempt = 0; attempt < 8; ++attempt) {
      const int kind = static_cast<int>(rng.uniform_int(0, 5));
      if (kind == 0) {  // crash
        if (crashed.size() >= gen.f) continue;
        const std::uint32_t lo = gen.allow_leader_crash ? 0 : 1;
        auto victim = static_cast<std::uint32_t>(
            rng.uniform_int(lo, static_cast<std::int64_t>(gen.n) - 1));
        if (crashed.count(victim)) continue;
        plan.add(sim::Fault::crash(t, static_cast<std::int32_t>(victim)));
        crashed.insert(victim);
      } else if (kind == 1) {  // recover
        if (crashed.empty()) continue;
        const std::uint32_t victim = *crashed.begin();
        plan.add(sim::Fault::recover(t, static_cast<std::int32_t>(victim)));
        crashed.erase(victim);
      } else if (kind == 2 || kind == 3) {  // partition (symmetric / one-way)
        const std::uint32_t lo = gen.allow_leader_crash ? 0 : 1;
        auto isolated = static_cast<std::uint32_t>(
            rng.uniform_int(lo, static_cast<std::int64_t>(gen.n) - 1));
        std::vector<std::uint32_t> side_a{sim::fault_endpoint_replica(isolated)};
        std::vector<std::uint32_t> side_b;
        for (std::uint32_t r = 0; r < gen.n; ++r) {
          if (r != isolated) side_b.push_back(sim::fault_endpoint_replica(r));
        }
        for (std::uint32_t c = 0; c < gen.client_count; ++c) {
          side_b.push_back(sim::fault_endpoint_client(c));
        }
        if (kind == 2) {
          plan.add(sim::Fault::partition(t, side_a, side_b, window));
        } else if (rng.next_double() < 0.5) {
          plan.add(sim::Fault::partition_one_way(t, side_a, side_b, window));
        } else {
          plan.add(sim::Fault::partition_one_way(t, side_b, side_a, window));
        }
      } else if (kind == 4) {  // delay spike
        const double factor = 2.0 + 8.0 * rng.next_double();
        plan.add(sim::Fault::delay_spike(t, factor, window));
      } else {  // drop burst
        const double p = 0.1 + 0.4 * rng.next_double();
        plan.add(sim::Fault::drop_burst(t, p, window));
      }
      break;
    }
  }
  // Every crash recovers: a permanently-down replica turns schedule bugs
  // into protocol-liveness noise.
  for (std::uint32_t victim : crashed) {
    t = std::min(t + step, gen.start + gen.spread + gen.max_window);
    plan.add(sim::Fault::recover(t, static_cast<std::int32_t>(victim)));
  }
  return plan;
}

json::Value make_artifact(const ChaosConfig& config, const ChaosResult& result) {
  json::Object expect;
  expect["history_hash"] = json::Value(hash_string(result.history_hash));
  expect["ok"] = json::Value(static_cast<std::uint64_t>(result.ok));
  expect["rejected"] = json::Value(static_cast<std::uint64_t>(result.rejected));
  expect["timeouts"] = json::Value(static_cast<std::uint64_t>(result.timeouts));
  expect["open"] = json::Value(static_cast<std::uint64_t>(result.open));
  expect["linearizable"] = json::Value(result.check.linearizable);
  json::Object obj;
  obj["config"] = config.to_json();
  obj["expect"] = json::Value(std::move(expect));
  return json::Value(std::move(obj));
}

ReplayResult replay_artifact(const json::Value& artifact) {
  const json::Value& config_json =
      artifact.contains("config") ? artifact.at("config") : artifact;
  ChaosConfig config = ChaosConfig::from_json(config_json);

  ReplayResult replay;
  replay.result = run_chaos(config);
  if (artifact.contains("expect")) {
    const json::Value& expect = artifact.at("expect");
    std::string want = expect.get_or<std::string>("history_hash", "");
    std::string got = hash_string(replay.result.history_hash);
    if (!want.empty() && want != got) {
      replay.hash_matched = false;
      replay.error = "history hash mismatch: artifact " + want + " vs replay " + got;
    }
  }
  if (!replay.result.check.linearizable) {
    replay.error += (replay.error.empty() ? "" : "; ") + replay.result.check.error;
  }
  if (!replay.result.exec_ok) {
    replay.error += (replay.error.empty() ? "" : "; ") + replay.result.exec_error;
  }
  return replay;
}

sim::FaultPlan shrink_plan(sim::FaultPlan plan,
                           const std::function<bool(const sim::FaultPlan&)>& still_fails) {
  bool changed = true;
  while (changed) {
    changed = false;
    // Pass 1: drop whole faults.
    for (std::size_t i = 0; i < plan.faults.size();) {
      sim::FaultPlan candidate = plan;
      candidate.faults.erase(candidate.faults.begin() + static_cast<std::ptrdiff_t>(i));
      if (still_fails(candidate)) {
        plan = std::move(candidate);
        changed = true;
      } else {
        ++i;
      }
    }
    // Pass 2: shorten windows.
    for (std::size_t i = 0; i < plan.faults.size(); ++i) {
      while (plan.faults[i].duration >= 20 * kMillisecond) {
        sim::FaultPlan candidate = plan;
        candidate.faults[i].duration /= 2;
        if (!still_fails(candidate)) break;
        plan = std::move(candidate);
        changed = true;
      }
    }
  }
  return plan;
}

}  // namespace idem::check
