// End-to-end benchmark: shared pieces.
//
// The benchmark reaches the system under test only through its public
// headers (real::RealCluster, harness::Cluster, core::IdemClient behind
// consensus::ServiceClient, the stats counters and the lifecycle trace
// recorder) and drives it with its own generator, so src/ can change its
// load generators and options without touching this directory.
//
//   Ledger      one record per operation, plus the value oracle that checks
//               every read and the final store contents
//   OpenLoop    Poisson arrivals into a FIFO that idle sessions drain; an
//               arrival is never dropped or re-timed, latency counts from
//               its due time
//   ClosedLoop  re-issue on REPLY, back off after a rejection (the paper's
//               client backs off 50-100 ms)
//   Report      named metrics with units and sample counts
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <string_view>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "app/kv_store.hpp"
#include "app/ycsb.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "consensus/service_client.hpp"
#include "obs/trace.hpp"
#include "sim/runtime.hpp"

namespace perfbench {

namespace app = idem::app;
using idem::Duration;
using idem::Time;

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  ///< sample count behind a statistic (0: not one)
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 0) {
    metrics_[name] = Metric{value, unit, samples};
  }
  bool has(const std::string& name) const { return metrics_.contains(name); }
  double get(const std::string& name) const {
    auto it = metrics_.find(name);
    return it == metrics_.end() ? 0.0 : it->second.value;
  }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

/// Order statistic at quantile q of `values` (sorted in place); 0 when empty.
double quantile(std::vector<double>& values, double q);
double median(std::vector<double> values);
/// Summary of a run's rounds: every metric at its median over the rounds,
/// sample counts summed.
Report summarize_rounds(const std::vector<Report>& reports);

// ---------------------------------------------------------------------------
// Ledger
// ---------------------------------------------------------------------------

enum class Outcome : std::uint8_t { Pending, Reply, Rejected, Timeout };

struct OpRecord {
  Time due = 0;
  Time issued = -1;     ///< -1 until a session took the op
  Time completed = -1;  ///< -1 while unresolved
  std::uint64_t request = 0;  ///< request_key(cid, onr), set at issue
  std::uint64_t key = 0;      ///< ValueOracle::hash of the command's key
  Outcome outcome = Outcome::Pending;
  bool update = false;
  bool measured = false;  ///< due inside the measured window
  bool malformed = false;
};

inline std::uint64_t request_key(std::uint64_t cid, std::uint64_t onr) {
  return (cid << 40) | onr;
}

/// Every value a key may legally hold: its initial value and every value
/// an update ever carried for it. Reads and the final store are checked
/// against this set, which catches lost, mixed-up or corrupted values
/// without assuming any particular interleaving.
class ValueOracle {
 public:
  static std::uint64_t hash(std::string_view text) { return std::hash<std::string_view>{}(text); }

  void allow(std::string_view key, std::string_view value) {
    values_[hash(key)].insert(hash(value));
  }
  bool may_hold(std::uint64_t key, std::string_view value) const {
    auto it = values_.find(key);
    return it != values_.end() && it->second.contains(hash(value));
  }

 private:
  std::unordered_map<std::uint64_t, std::unordered_set<std::uint64_t>> values_;
};

/// A measured operation kept for the layer replays (codec, framing,
/// execution, acceptance): the run's own commands and results.
struct Sample {
  idem::RequestId id;
  app::KvCommand command;
  std::vector<std::byte> result;
  Outcome outcome = Outcome::Pending;
};

struct Ledger {
  std::vector<OpRecord> ops;
  ValueOracle oracle;
  std::vector<Sample> samples;
  std::size_t sample_limit = 4096;

  /// Ledger index by request_key, filled at issue when `index_requests`
  /// is set (trace folding).
  bool index_requests = false;
  std::unordered_map<std::uint64_t, std::size_t> by_request;
};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// One client session: a ServiceClient with at most one op in flight.
struct Session {
  idem::consensus::ServiceClient* client = nullptr;
  std::uint64_t onr = 0;  ///< ops issued so far; matches the client's numbering
  std::size_t op = kIdle;
  std::vector<std::byte> sampled;  ///< command of an op kept as a Sample

  static constexpr std::size_t kIdle = std::numeric_limits<std::size_t>::max();
};

/// Issues ledger ops on sessions and records their outcomes. Commands are
/// YCSB operations drawn from the seed in issue order.
class LoadGenerator {
 public:
  LoadGenerator(idem::sim::Runtime& runtime, std::vector<Session> sessions, std::uint64_t seed,
         const app::YcsbConfig& workload, Ledger& ledger);
  virtual ~LoadGenerator() = default;

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  std::size_t in_flight() const { return in_flight_; }
  /// Ops issued with a due time inside the measured window.
  std::uint64_t attempted() const { return attempted_; }
  /// Stop creating new ops; outstanding ones still resolve.
  void stop() { stopped_ = true; }

 protected:
  /// Draws the next `count` commands now, so that issuing them later does
  /// no generation work on the generator's clock.
  void pregenerate(std::size_t count);
  /// Appends a ledger op due at `due`.
  std::size_t add_op(Time due, bool measured);
  void issue(std::size_t session, std::size_t op);
  virtual void on_free(std::size_t session, Outcome outcome) = 0;

  idem::sim::Runtime& runtime_;
  std::vector<Session> sessions_;
  Ledger& ledger_;
  bool stopped_ = false;

 private:
  /// An encoded command in arena_.
  struct Command {
    std::size_t offset = 0;
    std::size_t size = 0;
    std::uint64_t key = 0;
    bool update = false;
  };
  void generate();
  void complete(std::size_t session, const idem::consensus::Outcome& outcome);

  idem::Rng command_rng_;
  app::YcsbWorkload workload_;
  std::vector<std::byte> arena_;
  std::vector<Command> commands_;
  std::size_t next_command_ = 0;
  std::size_t sampling_ = 0;  ///< sampled ops in flight
  std::size_t in_flight_ = 0;
  std::uint64_t attempted_ = 0;
};

struct Window {
  Time start = 0;        ///< first arrival may be due here
  Duration warmup = 0;   ///< arrivals before start + warmup are not measured
  Duration measure = 0;  ///< measured span; arrivals stop at its end

  Time measure_begin() const { return start + warmup; }
  Time end() const { return start + warmup + measure; }
};

/// Open loop: Poisson arrivals at `rate` per second. Due arrivals queue in a
/// FIFO until a session is idle; nothing is dropped, merged or re-timed.
/// The schedule and its commands are drawn at construction; start() anchors
/// the schedule, and the owner calls pump() at (or after) next_due().
class OpenLoop final : public LoadGenerator {
 public:
  OpenLoop(idem::sim::Runtime& runtime, std::vector<Session> sessions, std::uint64_t seed,
           const app::YcsbConfig& workload, Ledger& ledger, double rate, Duration warmup,
           Duration measure);

  /// The first arrival may be due from `at` on.
  void start(Time at) { window_.start = at; }
  const Window& window() const { return window_; }

  /// Moves every arrival due by now into the FIFO and hands its head to
  /// idle sessions.
  void pump();
  /// Due time of the next arrival not yet queued; kTimeNever once the
  /// schedule is exhausted.
  Time next_due() const {
    return next_arrival_ < schedule_.size() ? window_.start + schedule_[next_arrival_]
                                            : idem::kTimeNever;
  }

  std::size_t backlog() const { return fifo_.size(); }
  std::size_t backlog_max() const { return backlog_max_; }
  /// Arrivals due inside the measured window (queued so far).
  std::uint64_t scheduled() const { return scheduled_; }

 private:
  void on_free(std::size_t session, Outcome outcome) override;
  void dispatch();

  Window window_;
  std::vector<Duration> schedule_;  ///< every arrival's offset from the start
  std::size_t next_arrival_ = 0;
  std::deque<std::size_t> fifo_;  ///< ledger ops due and not yet issued
  std::deque<std::size_t> idle_;  ///< sessions, least recently used first
  std::size_t backlog_max_ = 0;
  std::uint64_t scheduled_ = 0;
};

/// Rejection backoff of a closed loop, drawn uniformly from [min, max].
struct Backoff {
  Duration min = 0;
  Duration max = 0;
};

/// Closed loop (paper Section 7.1): every session re-issues the moment its
/// op ends in a REPLY and after a uniform backoff otherwise (50-100 ms in
/// the paper). An op is due when it is issued.
class ClosedLoop final : public LoadGenerator {
 public:
  ClosedLoop(idem::sim::Runtime& runtime, std::vector<Session> sessions, std::uint64_t seed,
             const app::YcsbConfig& workload, Ledger& ledger, Window window, Backoff backoff);

  /// Starts every session within the first millisecond.
  void start();

 private:
  void on_free(std::size_t session, Outcome outcome) override;
  void issue_next(std::size_t session);

  Window window_;
  Backoff backoff_;
  idem::Rng backoff_rng_;
};

// ---------------------------------------------------------------------------
// Measurements shared by the workloads
// ---------------------------------------------------------------------------

/// End-to-end metrics of the measured window from the ledger. Latency runs
/// from each op's due time; a REPLY within `slo` counts toward slo_pct.
/// `span` is the measured span in the time base of the ledger (simulated
/// or wall).
void report_outcomes(const Ledger& ledger, Duration span, Duration slo, Report& report);

struct Validity {
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< timeouts + unresolved + malformed
  bool ok() const { return problems.empty(); }
};

/// Every op resolved, no malformed result, no timeout.
Validity check_ledger(const Ledger& ledger);
/// Open loop: the FIFO drained and every scheduled arrival was attempted.
void check_open_loop(const OpenLoop& generator, Validity& validity);

/// Per-stage decomposition of the reply latency, folded from lifecycle
/// events by request id, plus client-side rejection and retry figures.
void fold_trace(const std::vector<idem::obs::TraceEvent>& events, const Ledger& ledger,
                std::size_t n, std::size_t f, Report& report);

/// Replays of the run's own data through single layers: message codec,
/// TCP framing, KV execution and the acceptance test.
struct ReplayInput {
  const std::vector<Sample>* samples = nullptr;
  std::vector<std::pair<std::string, std::string>> initial_store;
  double ops_per_propose = 1;
  std::size_t reject_threshold = 0;
  std::size_t expected_clients = 0;
};
void replay_layers(const ReplayInput& input, Report& report);

// ---------------------------------------------------------------------------
// Host accounting (Linux /proc)
// ---------------------------------------------------------------------------

namespace host {

int gettid();
std::vector<int> thread_ids();
std::vector<int> allowed_cpus();
/// Lets thread `tid` run only on `cpus`; false when the kernel refuses.
bool pin(int tid, const std::vector<int>& cpus);
/// CPU time of one thread of this process (ns).
std::int64_t thread_cpu_ns(int tid);
std::int64_t process_cpu_ns();
std::int64_t self_thread_cpu_ns();
std::int64_t wall_ns();

struct CpuStat {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuStat cpu_stat();
double steal_pct(const CpuStat& before, const CpuStat& after);

}  // namespace host

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// The benchmark's own spans around the public calls it makes: setup, the
/// run phases, the correctness checks and the layer replays.
class Spans {
 public:
  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
           std::string parent = "");
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string parent;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  std::vector<Span> spans_;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct RunResult {
  Report report;
  Validity validity;
  /// Sim-time metrics that must repeat bit for bit for a given seed.
  std::map<std::string, double> simtime;
  std::map<std::string, std::string> hygiene;
  Spans spans;
};

/// Each run sets its system up this many times, spread over the run, and
/// reports the fastest as setup_s: a set-up takes milliseconds, while the
/// host's slow spells last seconds.
constexpr int kSetups = 30;

RunResult run_sim(const RunOptions& options);
RunResult run_real(const RunOptions& options);
bool is_sim_workload(const std::string& name);
bool is_real_workload(const std::string& name);

/// Drives the open-loop generator on the simulator with stalled sessions
/// and checks that the validity rules catch them; returns failures.
std::vector<std::string> generator_selftest();

}  // namespace perfbench
