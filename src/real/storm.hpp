// Connection-storm driver: thousands of client sessions multiplexed on
// one epoll thread.
//
// The load driver (harness/load.hpp over shard::RealClients) hosts full
// core::IdemClient instances — faithful, but each client owns a
// listener-backed transport, which tops out at a few hundred sessions
// per process. StormEngine is the 10k-session
// counterpart: raw nonblocking sockets on a single rpc::EventLoop, one
// lean state machine per session (connect → warm → issue → reconnect),
// speaking the IDEM wire protocol directly (rpc/framing.hpp frames
// carrying msg::Request/Reply/Reject). Sessions advertise sender-port 0,
// so replicas answer over the same inbound connection (the transport's
// reply-over-inbound route) — no listener and no dial-back per session.
//
// The request lifecycle mirrors the fixed IdemClient: REQUESTs are
// multicast to every replica, rejections are counted per try (a
// retransmission clears the reject set — paper Section 4.5 "for this
// try"), n distinct rejections complete the operation as definitively
// rejected, n-f start the ambivalence wait. The measured
// rejection-notification latency is issue → that completion.
//
// Behaviors, all per-session and mixable in one storm:
//   - ramp: session spawns spread evenly across StormOptions::ramp;
//   - flash crowd: set_target_sessions() jumps the population mid-run
//     (spawns happen in bounded per-iteration chunks);
//   - reconnect stampede: a reset on any established connection tears the
//     session's connections down and reconnects them all after a jittered
//     delay — a leader crash turns the whole population over at once;
//   - slow loris: a configurable fraction of sessions hold a forever-
//     unfinished frame, trickling one byte per interval (what the
//     transport's half_open_timeout evicts).
//
// Single-threaded like shard::RealClients: the engine owns an EventLoop driven by
// the calling thread via run_for(); window()/gauges() are safe between
// run_for() calls. Several engines can run on separate threads with
// disjoint client_id_base ranges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "app/ycsb.hpp"
#include "common/histogram.hpp"
#include "common/time.hpp"
#include "rpc/event_loop.hpp"
#include "rpc/tcp_transport.hpp"

namespace idem::real {

struct StormOptions {
  /// Replica i is reachable at replicas[i]; size sets n. Normal sessions
  /// open one connection per replica; loris sessions one in total.
  std::vector<rpc::PeerAddress> replicas;
  /// Crash faults the ambivalence rule assumes; default (n-1)/2.
  std::size_t f = std::size_t(-1);

  std::size_t sessions = 100;        ///< initial target population
  /// First ClientId; offset past the load driver's usual range so mixed
  /// drivers never collide.
  std::uint64_t client_id_base = 1 << 20;
  Duration ramp = 0;                 ///< spread initial spawns over this span

  /// Per-session open-loop Poisson arrival rate in ops/s; 0 = closed loop.
  double issue_rate = 0;
  /// Closed-loop backoff after a non-REPLY outcome (paper Section 7.1).
  Duration backoff_min = 50 * kMillisecond;
  Duration backoff_max = 100 * kMillisecond;

  /// Churn: close and re-establish the session's connections after this
  /// many completed operations (0 = never).
  std::size_t reconnect_every_ops = 0;
  /// Jittered delay before re-establishing after a reset or churn point —
  /// the knob that keeps a stampede from being perfectly synchronized.
  Duration reconnect_delay_min = 10 * kMillisecond;
  Duration reconnect_delay_max = 200 * kMillisecond;

  Duration retry_interval = 500 * kMillisecond;  ///< retransmit cadence (0 = off)
  Duration optimistic_wait = 200 * kMillisecond; ///< ambivalence wait (n-f rejects)
  Duration op_timeout = 5 * kSecond;             ///< abandon an operation

  /// Fraction of sessions in slow-loris mode ([0, 1]).
  double slow_loris_fraction = 0;
  Duration loris_trickle = 500 * kMillisecond;   ///< one byte per interval

  /// Receive-buffer bytes per connection (replies are small; 10k sessions
  /// at the FrameReader default of 16 KiB would cost 480 MiB).
  std::size_t read_buffer_bytes = 1024;

  std::uint64_t seed = 1;
  app::YcsbConfig workload;
  rpc::EventLoop::Epoch epoch = std::chrono::steady_clock::now();
};

/// Phase measurements; reset_window() zeroes everything for the next
/// scenario phase.
struct StormWindow {
  Histogram connect_latency;  ///< nonblocking connect() → socket writable
  Histogram reply_latency;    ///< issue → REPLY
  Histogram reject_latency;   ///< issue → definitive-rejection notification
  std::uint64_t issued = 0;
  std::uint64_t replies = 0;
  std::uint64_t rejects = 0;      ///< definitively rejected operations
  std::uint64_t timeouts = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t connects = 0;          ///< connections established
  std::uint64_t connect_failures = 0;  ///< refused / failed handshakes
  std::uint64_t resets = 0;            ///< established connections dropped by peer
  std::uint64_t loris_evictions = 0;   ///< loris connections the server closed

  double reply_rate(Duration span) const {
    return span > 0 ? replies / to_sec(span) : 0.0;
  }
};

/// Point-in-time population state.
struct StormGauges {
  std::size_t target_sessions = 0;
  std::size_t sessions = 0;           ///< spawned (live or reconnecting)
  std::size_t open_connections = 0;   ///< established TCP connections
  std::size_t connecting = 0;         ///< handshakes in flight
};

class StormEngine {
 public:
  explicit StormEngine(StormOptions options);
  ~StormEngine();

  StormEngine(const StormEngine&) = delete;
  StormEngine& operator=(const StormEngine&) = delete;

  rpc::EventLoop& loop() { return loop_; }

  /// Begins ramping toward options.sessions. Call once.
  void start();
  /// Drives the loop on the calling thread for `span` of wall-clock time.
  void run_for(Duration span);

  /// Changes the target population; spawns (in bounded chunks) or
  /// destroys (newest first) sessions until it is met.
  void set_target_sessions(std::size_t n);
  /// Changes the per-session open-loop rate for existing + future
  /// sessions (0 = closed loop for future completions).
  void set_issue_rate(double ops_per_sec);
  /// Tears down every session's connections; each reconnects after its
  /// jittered delay — a forced full stampede.
  void reconnect_all();

  void reset_window() { window_ = StormWindow{}; }
  const StormWindow& window() const { return window_; }
  StormGauges gauges() const;

  /// Raises RLIMIT_NOFILE to at least `fds` (as far as the hard limit —
  /// or, for root, /proc/sys/fs/nr_open — allows). Returns the achieved
  /// soft limit. 10k loopback sessions need ~2 fds each across client and
  /// server processes, far past the usual 1024 default.
  static std::size_t raise_fd_limit(std::size_t fds);

 private:
  struct Conn;
  struct Session;

  void spawn_step();
  void schedule_spawn_step();
  void spawn_session();
  void destroy_session(Session& session);
  void connect_session(Session& session);
  void open_conn(Session& session, std::size_t ci);
  void teardown_conns(Session& session, bool reconnect);
  void cancel_op_timers(Session& session);
  void conn_event(Session& session, std::size_t ci, std::uint32_t events);
  void conn_established(Session& session, std::size_t ci);
  void conn_readable(Session& session, std::size_t ci);
  void on_reset(Session& session, std::size_t ci);
  void on_frame(Session& session, std::uint32_t sender, std::span<const std::byte> payload);
  void on_reject(Session& session, std::uint32_t replica);
  void session_active(Session& session);
  void issue_op(Session& session);
  void arm_retry(Session& session);
  void send_pending_frame(Session& session);
  /// Returns false when the write failed and the session's connections
  /// were torn down (the caller must not touch the connection again).
  bool flush_conn(Session& session, std::size_t ci);
  void complete_op(Session& session, bool was_reply);
  void arm_arrival(Session& session);
  void loris_start(Session& session, std::size_t ci);
  void loris_tick(Session& session);
  Duration reconnect_jitter();

  StormOptions options_;
  std::size_t f_ = 1;
  rpc::EventLoop loop_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::size_t target_ = 0;
  std::size_t next_index_ = 0;
  bool spawn_scheduled_ = false;
  bool ramp_active_ = false;
  Duration ramp_interval_ = 0;
  std::size_t ramp_chunk_ = 1;
  std::size_t open_connections_ = 0;
  std::size_t connecting_ = 0;
  double issue_rate_ = 0;
  StormWindow window_;
  Rng* jitter_ = nullptr;
};

}  // namespace idem::real
