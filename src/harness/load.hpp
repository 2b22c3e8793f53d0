// The load driver: the one place that decides when a client issues its
// next operation (paper Section 7.1), in every mode.
//
// A LoadDriver paces YCSB operations at a set of consensus::ServiceClients
// on any sim::Runtime: harness clusters on the simulator, IdemClients on
// an rpc::EventLoop, ShardRouters in either mode. Only construction is
// per mode (harness::Cluster, shard::ShardedSimCluster and
// shard::RealClients decide which clients run on which loop); callers
// advance time themselves between start() and stop().
//
// Two arrival policies:
//   - Closed loop (open_loop_rate == 0): one operation at a time per
//     client. A REPLY is followed at once by the next operation; any other
//     outcome means the system is loaded, and the client backs off for a
//     uniform draw from [backoff_min, backoff_max] (the paper's 50-100 ms).
//     Client starts are staggered within the first millisecond so the
//     initial burst does not arrive as one synchronized wave.
//   - Open loop: one Poisson arrival process per client. An arrival that
//     finds its client busy waits in the client's FIFO, and latency runs
//     from the due time, so time spent queued behind a slow system counts
//     against it instead of silently lowering the offered load.
//
// Every draw comes from a per-client stream keyed by client id —
// "ycsb.client.<id>", "backoff.client.<id>", "deadline.client.<id>",
// "start.client.<id>", "arrival.client.<id>" — so a simulated run is
// reproducible bit for bit, and a client's draws do not depend on how
// often any other component draws.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "app/ycsb.hpp"
#include "consensus/service_client.hpp"
#include "harness/metrics.hpp"
#include "sim/runtime.hpp"

namespace idem::harness {

class Cluster;

struct LoadConfig {
  /// Outcomes completing in [start + warmup, start + warmup + measure)
  /// are measured; measure == 0 keeps the window open until stop().
  Duration warmup = 0;
  Duration measure = 0;
  /// When > 0, measure every outcome from start() on (warmup and measure
  /// are ignored) and report done() once this many operations received
  /// replies (Table 1 mode).
  std::uint64_t stop_after_replies = 0;

  /// Per-client open-loop arrival rate in ops/s; 0 = closed loop.
  double open_loop_rate = 0;
  /// Closed-loop rejection backoff; backoff_max = 0 disables it.
  Duration backoff_min = 50 * kMillisecond;
  Duration backoff_max = 100 * kMillisecond;

  /// Latency budget stamped on every operation (0 = none), with a uniform
  /// +/- jitter. An open-loop operation carries what is left of its budget
  /// after waiting in the FIFO. Replies past the budget count as misses.
  Duration request_deadline = 0;
  Duration deadline_jitter = 0;

  app::YcsbConfig workload;
  /// Optional replacement for workload.next_operation(), handed the
  /// client's workload generator (e.g. to resample until a key lands on
  /// one shard).
  std::function<app::KvCommand(app::YcsbWorkload&)> command;

  /// Record every issued operation into RunMetrics::history.
  bool record_history = false;
};

class LoadDriver {
 public:
  /// `clients` are borrowed and must stay valid until they are removed
  /// or the driver is gone.
  LoadDriver(sim::Runtime& runtime, std::vector<consensus::ServiceClient*> clients,
             LoadConfig config);
  ~LoadDriver();

  LoadDriver(const LoadDriver&) = delete;
  LoadDriver& operator=(const LoadDriver&) = delete;

  /// Opens the measurement window at now() + warmup and starts every
  /// client. May follow a stop(); metrics and history accumulate.
  void start();
  /// Stops issuing: cancels the driver's timers, drops queued arrivals and
  /// closes the window (adding its length to metrics().measured).
  /// Operations still in flight complete into the history only.
  void stop();

  /// Joins `client` (borrowed, as above). A running driver starts it at
  /// once, exactly as start() starts the initial clients.
  void add(consensus::ServiceClient* client);
  /// Forgets `client`: its timers and queued arrivals go, and the outcome
  /// of an operation it still has in flight is ignored.
  void remove(consensus::ServiceClient* client);

  /// stop_after_replies reached.
  bool done() const;
  /// Operations issued and not concluded yet.
  std::size_t in_flight() const { return in_flight_; }

  RunMetrics& metrics() { return metrics_; }
  const RunMetrics& metrics() const { return metrics_; }

 private:
  struct Client : std::enable_shared_from_this<Client> {
    LoadDriver* driver = nullptr;
    consensus::ServiceClient* client = nullptr;
    std::unique_ptr<app::YcsbWorkload> workload;
    Rng* backoff = nullptr;
    Rng* deadlines = nullptr;  ///< request_deadline > 0 only
    Rng* arrivals = nullptr;   ///< open loop only
    sim::EventId issue_timer;    ///< start stagger, backoff or queued arrival
    sim::EventId arrival_timer;  ///< open loop: the next Poisson arrival
    Time next_due = 0;           ///< open loop: due time of the next arrival
    std::deque<Time> due;        ///< open loop: arrived, not issued yet
    bool in_flight = false;
    Time op_due = 0;             ///< open loop: due time of the in-flight op
    std::size_t op_history = 0;  ///< history index of the in-flight op
    std::uint64_t seq = 0;       ///< history sequence number
  };

  bool open_loop() const { return config_.open_loop_rate > 0; }
  bool measuring(Time t) const { return t >= window_start_ && t < window_end_; }
  std::shared_ptr<Client> make_client(consensus::ServiceClient* client);
  void start_client(Client& c);
  void stop_client(Client& c);
  void issue(Client& c);
  void arm_arrival(Client& c);
  void on_arrival(Client& c);
  void on_outcome(Client& c, const consensus::Outcome& outcome);
  void schedule_issue(Client& c, Duration delay);

  sim::Runtime& runtime_;
  LoadConfig config_;
  /// Shared so an outcome callback can tell, through a weak_ptr, whether
  /// its client is still driven (removed clients and a destroyed driver
  /// both expire it).
  std::vector<std::shared_ptr<Client>> clients_;
  RunMetrics metrics_;
  bool running_ = false;
  Time window_start_ = 0;
  Time window_end_ = 0;
  std::uint64_t total_replies_ = 0;
  std::size_t in_flight_ = 0;
};

/// The paper's experiment on a simulated cluster: drives every client of
/// `cluster` with `config` (the workload is the cluster's) from now() —
/// warm-up, then the measured window with fresh traffic counters, or with
/// stop_after_replies the whole run until that many replies — and returns
/// the metrics, including the window's network traffic.
RunMetrics drive(Cluster& cluster, LoadConfig config);

}  // namespace idem::harness
