// End-to-end tests for the chaos pipeline: seeded random schedules run
// deterministically, replay artifacts round-trip with identical history
// hashes, the generator respects its safety constraints, and the greedy
// shrinker reduces a fat schedule to a minimal failing core.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "check/chaos.hpp"

namespace idem {
namespace {

using check::ChaosConfig;
using check::ChaosResult;
using check::PlanGenConfig;

ChaosConfig small_config(const std::string& protocol, std::uint64_t seed) {
  ChaosConfig config;
  config.protocol = protocol;
  config.seed = seed;
  config.clients = 3;
  config.ops_per_client = 8;
  config.plan = check::random_plan(seed, PlanGenConfig{});
  return config;
}

TEST(Chaos, MiniSweepAcrossProtocolsPasses) {
  for (const char* protocol : {"idem", "paxos", "smart"}) {
    PlanGenConfig gen;
    gen.allow_leader_crash = std::string(protocol) != "smart";
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      ChaosConfig config = small_config(protocol, seed);
      config.plan = check::random_plan(seed, gen);
      ChaosResult result = check::run_chaos(config);
      EXPECT_TRUE(result.passed())
          << protocol << " seed " << seed << ": "
          << (result.check.linearizable ? result.exec_error : result.check.error);
      EXPECT_EQ(result.ok + result.rejected + result.timeouts + result.open,
                config.clients * config.ops_per_client);
    }
  }
}

// A client whose request executed just before the leader crash retransmits
// into the new view; the answer must come from the replicas' client-table
// reply cache, never from a second execution. The execution-log
// cross-invariants pin this: "executed twice" on any replica fails
// exec_ok, and linearizability fails if a duplicate execution mutated
// state. Inflight ops never time out here (op_timeout >> crash window),
// so every op spanning the crash completes through retransmission.
TEST(Chaos, RetransmitAfterLeaderCrashAnswersFromCache) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ChaosConfig config;
    config.protocol = "idem";
    config.seed = seed;
    config.clients = 4;
    config.ops_per_client = 20;
    config.reject_threshold = 50;  // no rejection noise in this scenario
    config.think_min = 10 * kMillisecond;
    config.think_max = 60 * kMillisecond;
    config.op_timeout = 10 * kSecond;
    config.plan.faults = {
        sim::Fault::crash(300 * kMillisecond, sim::Fault::kLeader),
        sim::Fault::recover(1500 * kMillisecond),
    };
    ChaosResult result = check::run_chaos(config);
    EXPECT_TRUE(result.exec_ok) << "seed " << seed << ": " << result.exec_error;
    EXPECT_TRUE(result.check.linearizable) << "seed " << seed << ": " << result.check.error;
    // The whole workload completes: nothing times out or stays open, so
    // the ops inflight across the crash really were answered on retry.
    EXPECT_EQ(result.ok, config.clients * config.ops_per_client) << "seed " << seed;
  }
}

// A request that one replica accepted and the others rejected is given up
// by its client; the client's next REQUEST must release the slot it holds
// on the accepting replica, or r_now leaks until the replica rejects
// everything. Each case ended with leaked slots before superseded requests
// were released: IDEM's at chaos_run's default sweep settings, SMaRt+PR's
// (which runs the same intake) at the small thresholds where its leak path
// is reached. Plans are built as chaos_run --sweep builds them.
TEST(Chaos, AbandonedAcceptanceReleasesItsSlot) {
  struct Case {
    const char* protocol;
    std::uint64_t seed;
    std::size_t clients, ops, rt;
  };
  for (const Case& c : {Case{"idem", 87, 4, 16, 5}, Case{"idem", 94, 4, 16, 5},
                        Case{"idem", 95, 4, 16, 5}, Case{"smart-pr", 20192, 6, 16, 2},
                        Case{"smart-pr", 20724, 6, 16, 2}, Case{"smart-pr", 20995, 6, 16, 2},
                        Case{"smart-pr", 50172, 8, 24, 3}, Case{"smart-pr", 50635, 8, 24, 3}}) {
    ChaosConfig config;
    config.protocol = c.protocol;
    config.seed = c.seed;
    config.clients = c.clients;
    config.ops_per_client = c.ops;
    config.reject_threshold = c.rt;
    PlanGenConfig gen;
    gen.client_count = c.clients;
    gen.allow_leader_crash = config.protocol != "smart-pr";
    config.plan = check::random_plan(c.seed, gen);
    ChaosResult result = check::run_chaos(config);
    EXPECT_TRUE(result.passed()) << c.protocol << " seed " << c.seed << ": "
                                 << (result.check.linearizable ? result.exec_error
                                                               : result.check.error);
  }
}

TEST(Chaos, ReplayIsDeterministic) {
  ChaosConfig config = small_config("idem", 7);
  ChaosResult first = check::run_chaos(config);
  ChaosResult second = check::run_chaos(config);
  EXPECT_EQ(first.history_hash, second.history_hash);
  EXPECT_EQ(first.history, second.history);
}

TEST(Chaos, DifferentSeedsProduceDifferentHistories) {
  ChaosResult a = check::run_chaos(small_config("idem", 1));
  ChaosResult b = check::run_chaos(small_config("idem", 2));
  EXPECT_NE(a.history_hash, b.history_hash);
}

TEST(Chaos, ArtifactRoundTripReplays) {
  ChaosConfig config = small_config("idem", 11);
  ChaosResult result = check::run_chaos(config);
  json::Value artifact = check::make_artifact(config, result);
  // Through a serialize/parse cycle, like the corpus files on disk.
  json::Value reparsed = json::Value::parse(artifact.dump());
  check::ReplayResult replay = check::replay_artifact(reparsed);
  EXPECT_TRUE(replay.hash_matched) << replay.error;
  EXPECT_TRUE(replay.passed()) << replay.error;
  EXPECT_EQ(replay.result.ok, result.ok);
}

TEST(Chaos, ReplayDetectsStaleHashStamp) {
  ChaosConfig config = small_config("idem", 11);
  json::Value artifact = check::make_artifact(config, check::run_chaos(config));
  artifact.as_object()["expect"].as_object()["history_hash"] =
      json::Value(std::string("deadbeefdeadbeef"));
  check::ReplayResult replay = check::replay_artifact(artifact);
  EXPECT_FALSE(replay.hash_matched);
  EXPECT_FALSE(replay.passed());
}

TEST(Chaos, GeneratorRespectsConstraints) {
  PlanGenConfig gen;
  gen.max_faults = 6;
  gen.allow_leader_crash = false;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    sim::FaultPlan plan = check::random_plan(seed, gen);
    // Walk the schedule in time order, tracking crashed replicas.
    std::vector<const sim::Fault*> ordered;
    for (const auto& fault : plan.faults) ordered.push_back(&fault);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const sim::Fault* a, const sim::Fault* b) { return a->at < b->at; });
    std::set<std::int32_t> down;
    for (const sim::Fault* fault : ordered) {
      EXPECT_GE(fault->at, gen.start) << "seed " << seed;
      switch (fault->kind) {
        case sim::Fault::Kind::Crash:
          EXPECT_NE(fault->replica, 0) << "seed " << seed << ": leader crash disallowed";
          down.insert(fault->replica);
          EXPECT_LE(down.size(), gen.f) << "seed " << seed << ": > f concurrent crashes";
          break;
        case sim::Fault::Kind::Recover:
          down.erase(fault->replica);
          break;
        default:
          EXPECT_LE(fault->duration, gen.max_window) << "seed " << seed;
          break;
      }
    }
    EXPECT_TRUE(down.empty()) << "seed " << seed << ": crash never recovered";
    EXPECT_LE(plan.end_time(), gen.start + gen.spread + gen.max_window)
        << "seed " << seed;
  }
}

TEST(Chaos, SaturatedClusterDefinitivelyRejects) {
  // reject_threshold = 0: every replica rejects everything, so every op
  // collects all n rejections — definitive failure, client notified, and
  // trivially linearizable (nothing executed).
  ChaosConfig config;
  config.protocol = "idem";
  config.seed = 3;
  config.clients = 2;
  config.ops_per_client = 4;
  config.reject_threshold = 0;
  ChaosResult result = check::run_chaos(config);
  EXPECT_TRUE(result.passed()) << result.check.error << result.exec_error;
  EXPECT_EQ(result.rejected, config.clients * config.ops_per_client);
  EXPECT_EQ(result.ok, 0u);
  EXPECT_EQ(result.timeouts, 0u);
}

TEST(Chaos, ShrinkerReducesToMinimalCore) {
  // An 8-fault schedule where the synthetic "bug" needs exactly two
  // ingredients: the crash of replica 1 and a drop burst. Greedy shrinking
  // must strip the other six faults and keep halving the windows.
  sim::FaultPlan fat{
      sim::Fault::delay_spike(100 * kMillisecond, 5.0, 400 * kMillisecond),
      sim::Fault::crash(200 * kMillisecond, 1),
      sim::Fault::partition(300 * kMillisecond, {2}, {0}, 800 * kMillisecond),
      sim::Fault::drop_burst(400 * kMillisecond, 0.4, 1600 * kMillisecond),
      sim::Fault::partition_one_way(500 * kMillisecond, {0}, {2}, 200 * kMillisecond),
      sim::Fault::recover(900 * kMillisecond, 1),
      sim::Fault::delay_spike(kSecond, 3.0, 300 * kMillisecond),
      sim::Fault::heal(2 * kSecond),
  };
  auto still_fails = [](const sim::FaultPlan& plan) {
    bool crash1 = false, burst = false;
    for (const auto& fault : plan.faults) {
      if (fault.kind == sim::Fault::Kind::Crash && fault.replica == 1) crash1 = true;
      if (fault.kind == sim::Fault::Kind::DropBurst) burst = true;
    }
    return crash1 && burst;
  };
  sim::FaultPlan shrunk = check::shrink_plan(fat, still_fails);
  EXPECT_LE(shrunk.size(), 3u);
  EXPECT_TRUE(still_fails(shrunk));
  // Windows shrank too: the fat burst window halved its way below 40 ms.
  for (const auto& fault : shrunk.faults) {
    if (fault.kind == sim::Fault::Kind::DropBurst) {
      EXPECT_LT(fault.duration, 40 * kMillisecond);
    }
  }
}

TEST(Chaos, ConfigJsonRoundTrip) {
  ChaosConfig config = small_config("paxos", 42);
  config.app = "counter";
  config.read_fraction = 0.5;
  config.reject_threshold = 7;
  ChaosConfig round = ChaosConfig::from_json(json::Value::parse(config.to_json().dump()));
  EXPECT_EQ(round.protocol, config.protocol);
  EXPECT_EQ(round.app, config.app);
  EXPECT_EQ(round.seed, config.seed);
  EXPECT_EQ(round.clients, config.clients);
  EXPECT_EQ(round.ops_per_client, config.ops_per_client);
  EXPECT_EQ(round.keys, config.keys);
  EXPECT_EQ(round.reject_threshold, config.reject_threshold);
  EXPECT_DOUBLE_EQ(round.read_fraction, config.read_fraction);
  EXPECT_EQ(round.think_min, config.think_min);
  EXPECT_EQ(round.think_max, config.think_max);
  EXPECT_EQ(round.op_timeout, config.op_timeout);
  EXPECT_EQ(round.horizon, config.horizon);
  EXPECT_EQ(round.plan, config.plan);
}

// The deadline stack under fault injection: EDF scheduling + DeadlineAware
// admission, every op carrying a budget, random crash/partition schedules.
// The safety property: budget pressure only ever produces rejections —
// linearizability holds, no ghost or duplicate executions, and every op
// still terminates in one of the four outcomes.
TEST(Chaos, DeadlineStackSweepStaysLinearizable) {
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    ChaosConfig config = small_config("idem", seed);
    config.discipline = "edf";
    config.deadline_aware = true;
    config.request_deadline = 150 * kMillisecond;
    config.reject_threshold = 3;  // tight r: admission actually fires
    ChaosResult result = check::run_chaos(config);
    EXPECT_TRUE(result.passed())
        << "seed " << seed << ": "
        << (result.check.linearizable ? result.exec_error : result.check.error);
    EXPECT_EQ(result.ok + result.rejected + result.timeouts + result.open,
              config.clients * config.ops_per_client)
        << "seed " << seed;
  }
}

// Deadlines + EDF with the default FIFO knobs untouched must replay to the
// same history hash (the armed run is deterministic too), and the config
// round-trips through the artifact JSON so corpus replay can pin it.
TEST(Chaos, DeadlineConfigRoundTripsAndReplaysDeterministically) {
  ChaosConfig config = small_config("idem", 23);
  config.discipline = "edf";
  config.deadline_aware = true;
  config.request_deadline = 200 * kMillisecond;
  ChaosConfig round = ChaosConfig::from_json(json::Value::parse(config.to_json().dump()));
  EXPECT_EQ(round.discipline, "edf");
  EXPECT_TRUE(round.deadline_aware);
  EXPECT_EQ(round.request_deadline, config.request_deadline);
  ChaosResult first = check::run_chaos(config);
  ChaosResult second = check::run_chaos(round);
  EXPECT_EQ(first.history_hash, second.history_hash);
}

// Deadline-less configs must serialize exactly as before the deadline
// knobs existed: the corpus artifacts' config JSON is part of their
// replay contract.
TEST(Chaos, DeadlinelessConfigJsonIsUnchanged) {
  ChaosConfig config = small_config("idem", 5);
  const std::string dumped = config.to_json().dump();
  EXPECT_EQ(dumped.find("discipline"), std::string::npos);
  EXPECT_EQ(dumped.find("request_deadline_ns"), std::string::npos);
  EXPECT_EQ(dumped.find("deadline_aware"), std::string::npos);
}

TEST(Chaos, CounterAppSweepPasses) {
  for (std::uint64_t seed = 900; seed < 903; ++seed) {
    ChaosConfig config = small_config("idem", seed);
    config.app = "counter";
    ChaosResult result = check::run_chaos(config);
    EXPECT_TRUE(result.passed())
        << "seed " << seed << ": " << result.check.error << result.exec_error;
  }
}

}  // namespace
}  // namespace idem
