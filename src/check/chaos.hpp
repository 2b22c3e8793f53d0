// Chaos experiments: seeded random fault schedules driven against a full
// cluster, with the client-observed history recorded and checked for
// linearizability plus replica execution-log cross-invariants.
//
// Everything here is deterministic in (config, seed): replaying the same
// ChaosConfig reproduces the identical history bit for bit, which is what
// the replay artifacts in tests/corpus/ assert via the history hash.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "check/history.hpp"
#include "check/linearizability.hpp"
#include "harness/cluster.hpp"
#include "sim/fault_plan.hpp"

namespace idem::check {

/// Full description of one chaos experiment (serializable; the `config`
/// half of a replay artifact).
struct ChaosConfig {
  std::string protocol = "idem";  ///< idem|idem-nopr|idem-noaqm|paxos|paxos-lbr|smart|smart-pr
  std::string app = "kv";         ///< kv | counter
  std::uint64_t seed = 1;
  std::size_t clients = 4;
  std::size_t ops_per_client = 16;  ///< invokes per client (retries are new ops)
  std::size_t keys = 3;             ///< workload key-space size
  std::size_t reject_threshold = 5;
  /// Rejected-bodies cache capacity for the proactive-rejection protocols
  /// (0 keeps the protocol default). Tiny values force LRU evictions and
  /// make the Section 4.5 refresh-on-repeat-rejection rule observable.
  std::size_t rejected_cache = 0;
  double read_fraction = 0.35;
  /// Think time between a client's operations, uniform in [min, max].
  /// Paces the workload across the fault schedule — without it a small
  /// workload finishes before the first fault fires.
  Duration think_min = 50 * kMillisecond;
  Duration think_max = 300 * kMillisecond;
  Duration op_timeout = 2 * kSecond;  ///< client operation timeout
  Duration horizon = 60 * kSecond;    ///< hard stop; unfinished ops stay Open
  /// Service-queue order on the replicas: "fifo" (default, bit-identical
  /// to the pre-discipline kernel) or "edf" (earliest-deadline-first).
  std::string discipline = "fifo";
  /// When nonzero, every client op carries this latency budget, so the
  /// fault schedule runs against deadline-carrying traffic. A reply past
  /// its budget is still an Ok outcome for the checker — the safety
  /// property under test is that budget pressure only ever produces
  /// rejections, never duplicate or ghost executions.
  Duration request_deadline = 0;
  /// Wraps each replica's acceptance test in core::DeadlineAware.
  bool deadline_aware = false;
  sim::FaultPlan plan;

  json::Value to_json() const;
  static ChaosConfig from_json(const json::Value& value);
};

struct ChaosResult {
  History history;
  CheckResult check;
  std::uint64_t history_hash = 0;
  std::size_t ok = 0, rejected = 0, timeouts = 0, open = 0;
  /// Replica execution-log cross-invariants: agreement (same sequence
  /// number => same request everywhere), exactly-once per replica, every
  /// Ok op executed somewhere, and no definitively-rejected op executed
  /// anywhere. After the drain, also no leaked admission slot: no live
  /// IDEM replica counts an id in r_now that it has already executed.
  bool exec_ok = true;
  std::string exec_error;

  bool passed() const { return check.linearizable && exec_ok; }
};

/// Runs one chaos experiment to completion. Deterministic.
ChaosResult run_chaos(const ChaosConfig& config);

/// Constraints for the random schedule generator.
struct PlanGenConfig {
  std::size_t max_faults = 4;
  Time start = 200 * kMillisecond;          ///< earliest fault
  Duration spread = 3 * kSecond;            ///< faults land in [start, start+spread)
  Duration max_window = 1500 * kMillisecond; ///< longest auto-revert window
  std::size_t n = 3;
  std::size_t f = 1;  ///< never more than f replicas down at once
  /// SMaRt-analog clusters have no view change: never crash replica 0.
  bool allow_leader_crash = true;
  std::size_t client_count = 4;
};

/// Generates a random-but-valid fault schedule: at most f concurrent
/// crashes, every crash eventually recovered, every window reverting
/// before `start + spread + max_window`.
sim::FaultPlan random_plan(std::uint64_t seed, const PlanGenConfig& gen);

/// Replay artifact: {"config": ..., "expect": {hash + outcome counts}}.
json::Value make_artifact(const ChaosConfig& config, const ChaosResult& result);

struct ReplayResult {
  ChaosResult result;
  bool hash_matched = true;  ///< history hash equals the artifact's stamp
  std::string error;
  bool passed() const { return result.passed() && hash_matched; }
};

/// Re-runs an artifact's config and verifies the stamped history hash.
ReplayResult replay_artifact(const json::Value& artifact);

/// Greedy shrink: repeatedly drop whole faults, then halve windows, while
/// `still_fails` keeps returning true. The predicate is arbitrary so tests
/// can shrink against synthetic bugs.
sim::FaultPlan shrink_plan(sim::FaultPlan plan,
                           const std::function<bool(const sim::FaultPlan&)>& still_fails);

std::optional<harness::Protocol> protocol_from_name(const std::string& name);

}  // namespace idem::check
