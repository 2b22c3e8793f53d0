// Connection-storm driver: thousands of client sessions multiplexed on
// one epoll thread.
//
// The work is split three ways. core::IdemClient implements the client's
// half of the protocol (multicast, the per-try reject set, ambivalence,
// retransmission, give-up). harness::LoadDriver paces every session, in
// closed or open loop, and keeps the operation metrics (metrics()). The
// engine owns only what is specific to storms: the session population
// and the connections.
//
// Each normal session is one IdemClient whose transport is the session
// itself: a nonblocking connection per replica on the engine's single
// rpc::EventLoop, no listener. Frames advertise sender-port 0, so
// replicas answer over the same inbound connection (the transport's
// reply-over-inbound route). A frame sent while its connection is still
// connecting, or while the session waits to reconnect, goes out once the
// connection is up. shard::RealClients hosts IdemClients on one
// TcpTransport instead, which carries all of them over one connection
// per replica.
//
// Behaviors, all per-session and mixable in one storm:
//   - ramp: session spawns spread evenly across StormOptions::ramp;
//   - flash crowd: set_target_sessions() jumps the population mid-run
//     (spawns happen in bounded per-iteration chunks);
//   - reconnect stampede: a reset on any established connection tears the
//     session's connections down and reconnects them all after a jittered
//     delay — a leader crash turns the whole population over at once;
//   - churn: reconnect after every N completed operations;
//   - slow loris: a configurable fraction of sessions hold a forever-
//     unfinished frame, trickling one byte per interval (what the
//     transport's half_open_timeout evicts). Loris sessions issue nothing.
//
// Single-threaded like shard::RealClients: the engine owns an EventLoop driven by
// the calling thread via run_for(); window()/metrics()/gauges() are safe
// between run_for() calls. Several engines can run on separate threads
// with disjoint client_id_base ranges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/histogram.hpp"
#include "common/time.hpp"
#include "harness/load.hpp"
#include "idem/client.hpp"
#include "rpc/event_loop.hpp"
#include "rpc/tcp_transport.hpp"

namespace idem::real {

struct StormOptions {
  /// Replica i is reachable at replicas[i]; size sets n. Normal sessions
  /// open one connection per replica; loris sessions one in total.
  std::vector<rpc::PeerAddress> replicas;

  std::size_t sessions = 100;        ///< initial target population
  /// First ClientId; offset past the load driver's usual range so mixed
  /// drivers never collide.
  std::uint64_t client_id_base = 1 << 20;
  Duration ramp = 0;                 ///< spread initial spawns over this span

  /// Churn: close and re-establish the session's connections after this
  /// many completed operations (0 = never).
  std::size_t reconnect_every_ops = 0;
  /// Jittered delay before re-establishing after a reset or churn point —
  /// the knob that keeps a stampede from being perfectly synchronized.
  Duration reconnect_delay_min = 10 * kMillisecond;
  Duration reconnect_delay_max = 200 * kMillisecond;

  /// Fraction of sessions in slow-loris mode ([0, 1]).
  double slow_loris_fraction = 0;
  Duration loris_trickle = 500 * kMillisecond;   ///< one byte per interval

  std::uint64_t seed = 1;
  rpc::EventLoop::Epoch epoch = std::chrono::steady_clock::now();

  /// Every session's client; n comes from `replicas`, and f = 0 derives
  /// (n - 1) / 2. The defaults are the storm's long-standing timing: the
  /// optimistic strategy with a 200 ms ambivalence wait, a 500 ms
  /// retransmit and a 5 s give-up.
  core::IdemClientConfig client{
      .f = 0, .optimistic_wait = 200 * kMillisecond, .operation_timeout = 5 * kSecond};
  /// Pacing: open_loop_rate is per session (0 = closed loop, with the
  /// 50-100 ms rejection backoff); the window stays open until the engine
  /// is destroyed, and reset_window() restarts its counts.
  harness::LoadConfig load;
};

/// Connection measurements; reset_window() zeroes them for the next
/// scenario phase. Operation counts live in StormEngine::metrics().
struct StormWindow {
  Histogram connect_latency;  ///< nonblocking connect() → socket writable
  std::uint64_t connects = 0;          ///< connections established
  std::uint64_t connect_failures = 0;  ///< refused / failed handshakes
  std::uint64_t resets = 0;            ///< established connections dropped by peer
  std::uint64_t loris_evictions = 0;   ///< loris connections the server closed
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
  /// Tears down every session's connections; each reconnects after its
  /// jittered delay — a forced full stampede.
  void reconnect_all();

  /// Zeroes the connection window and the driver's operation metrics.
  void reset_window();
  const StormWindow& window() const { return window_; }
  /// Operation counts and latencies since the last reset_window(). Open
  /// loop latency runs from each arrival's due time.
  const harness::RunMetrics& metrics() const { return driver_.metrics(); }
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
  void conn_event(Session& session, std::size_t ci, std::uint32_t events);
  void conn_established(Session& session, std::size_t ci);
  void conn_readable(Session& session, std::size_t ci);
  void on_reset(Session& session);
  void on_frame(Session& session, std::uint32_t sender, std::span<const std::byte> payload);
  void send_frame(Session& session, std::size_t replica, std::span<const std::byte> frame);
  void op_completed(Session& session);
  /// Returns false when the write failed and the session's connections
  /// were torn down (the caller must not touch the connection again).
  bool flush_conn(Session& session, std::size_t ci);
  void loris_start(Session& session, std::size_t ci);
  void loris_tick(Session& session);
  Duration reconnect_jitter();

  StormOptions options_;
  rpc::EventLoop loop_;
  harness::LoadDriver driver_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::size_t target_ = 0;
  std::size_t next_index_ = 0;
  bool spawn_scheduled_ = false;
  bool ramp_active_ = false;
  Duration ramp_interval_ = 0;
  std::size_t ramp_chunk_ = 1;
  std::size_t open_connections_ = 0;
  std::size_t connecting_ = 0;
  StormWindow window_;
  Rng* jitter_ = nullptr;
};

}  // namespace idem::real
