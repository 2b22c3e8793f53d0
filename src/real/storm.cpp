#include "real/storm.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "consensus/addresses.hpp"
#include "consensus/messages.hpp"

namespace idem::real {

namespace {

/// Sessions spawned or destroyed per reconciliation step outside a ramp —
/// a flash crowd arrives in bursts of this size with an event-loop
/// iteration between bursts, so established sessions' I/O keeps running.
constexpr std::size_t kSpawnChunk = 256;

/// Minimum gap between ramp steps; finer ramps batch several spawns per
/// step instead of scheduling sub-millisecond timers.
constexpr Duration kMinRampStep = 2 * kMillisecond;

/// Payload bytes a loris session's forever-unfinished frame claims.
constexpr std::size_t kLorisClaim = 64;

/// Receive-buffer bytes per connection (replies are small; 10k sessions
/// at the FrameReader default of 16 KiB would cost 480 MiB).
constexpr std::size_t kReadBufferBytes = 1024;

}  // namespace

/// One TCP connection of a session (session → one replica).
struct StormEngine::Conn {
  enum class State : std::uint8_t { Dead, Connecting, Connected };

  explicit Conn(std::size_t read_buffer)
      : reader(rpc::kMaxFrameBytes, read_buffer) {}

  int fd = -1;
  State state = State::Dead;
  std::uint32_t replica = 0;  ///< index into options_.replicas
  bool want_write = false;    ///< EPOLLOUT currently armed
  Time connect_started = 0;
  rpc::FrameReader reader;
  rpc::PendingWrites out;
};

/// One client session. A normal session is the transport of its own
/// core::IdemClient, and the driver's handle on it: invoke() forwards to
/// the client and counts completions for churn.
struct StormEngine::Session final : sim::Transport, consensus::ServiceClient {
  Session(StormEngine& engine_, std::size_t index_, ClientId cid_, bool loris_)
      : engine(engine_), index(index_), cid(cid_), loris(loris_) {}

  // sim::Transport: the client is the only node, and it only sends.
  void add_node(sim::NodeId, sim::NodeKind, sim::Endpoint*) override {}
  void remove_node(sim::NodeId) override {}
  void send(sim::NodeId from, sim::NodeId to, sim::PayloadPtr message) override {
    // The client multicasts each message to every replica: frame it once.
    // Holding the message keeps its address from being reused.
    if (message != framed) {
      const auto* typed = dynamic_cast<const msg::Message*>(message.get());
      if (typed == nullptr) return;
      // Sender-port 0: replicas route the REPLY/REJECT back over this very
      // connection instead of dialing a listener we don't have.
      framed.reset();  // `frame` is rebuilt below
      rpc::build_frame(frame, from.value, 0, [typed](ByteWriter& w) { typed->encode_to(w); });
      framed = std::move(message);
    }
    engine.send_frame(*this, consensus::replica_of_address(to).value, frame);
  }

  // consensus::ServiceClient
  void invoke(std::vector<std::byte> command, Callback callback) override {
    client->invoke(std::move(command),
                   [this, callback = std::move(callback)](const consensus::Outcome& outcome) {
                     callback(outcome);
                     engine.op_completed(*this);
                   });
  }
  void set_request_deadline(Duration deadline) override {
    client->set_request_deadline(deadline);
  }
  ClientId client_id() const override { return cid; }
  bool busy() const override { return client->busy(); }

  StormEngine& engine;
  std::size_t index;
  ClientId cid;
  bool loris;
  /// Bumped by every teardown; lets re-entrant paths (drain callbacks that
  /// complete an operation which tears the connections down) detect that
  /// the connection they were reading from is gone.
  std::uint64_t conn_epoch = 0;
  std::vector<Conn> conns;
  /// Per replica: the latest frame sent while waiting to reconnect.
  std::vector<std::vector<std::byte>> held;
  std::size_t ops_since_connect = 0;
  sim::EventId reconnect_timer;

  std::unique_ptr<core::IdemClient> client;  ///< normal sessions only
  sim::PayloadPtr framed;                    ///< the message `frame` encodes
  std::vector<std::byte> frame;

  // Slow loris: the partial frame being trickled.
  std::vector<std::byte> loris_frame;
  std::size_t loris_sent = 0;
  sim::EventId loris_timer;
};

StormEngine::StormEngine(StormOptions options)
    : options_(std::move(options)),
      loop_(options_.seed, options_.epoch),
      driver_(loop_, {}, options_.load) {
  options_.client = options_.client.for_replicas(options_.replicas.size());
  jitter_ = &loop_.rng("storm.jitter");
}

StormEngine::~StormEngine() {
  // Newest first, the order the driver finds them in fastest.
  for (auto it = sessions_.rbegin(); it != sessions_.rend(); ++it) destroy_session(**it);
  sessions_.clear();
}

std::size_t StormEngine::raise_fd_limit(std::size_t fds) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur >= fds) return lim.rlim_cur;
  rlimit want = lim;
  want.rlim_cur = fds;
  if (want.rlim_max < fds) want.rlim_max = fds;  // root may raise the hard cap
  if (::setrlimit(RLIMIT_NOFILE, &want) == 0) return want.rlim_cur;
  // Raising the hard limit needs privilege; settle for the existing cap.
  want.rlim_cur = lim.rlim_max;
  want.rlim_max = lim.rlim_max;
  if (::setrlimit(RLIMIT_NOFILE, &want) == 0) return want.rlim_cur;
  return lim.rlim_cur;
}

void StormEngine::start() {
  driver_.start();
  target_ = options_.sessions;
  ramp_active_ = options_.ramp > 0 && target_ > 0;
  if (ramp_active_) {
    const Duration per_session = options_.ramp / static_cast<Duration>(target_);
    if (per_session >= kMinRampStep) {
      ramp_chunk_ = 1;
      ramp_interval_ = per_session;
    } else {
      ramp_interval_ = kMinRampStep;
      ramp_chunk_ = per_session > 0
                        ? (kMinRampStep + per_session - 1) / per_session
                        : target_;
    }
  }
  schedule_spawn_step();
}

void StormEngine::run_for(Duration span) { loop_.run_for(span); }

void StormEngine::set_target_sessions(std::size_t n) {
  target_ = n;
  ramp_active_ = false;  // population jumps reconcile in chunked bursts
  schedule_spawn_step();
}

void StormEngine::reconnect_all() {
  for (auto& owned : sessions_) {
    if (!owned->reconnect_timer.valid()) teardown_conns(*owned, /*reconnect=*/true);
  }
}

void StormEngine::reset_window() {
  window_ = StormWindow{};
  driver_.metrics() = harness::RunMetrics{};
}

StormGauges StormEngine::gauges() const {
  StormGauges g;
  g.target_sessions = target_;
  g.sessions = sessions_.size();
  g.open_connections = open_connections_;
  g.connecting = connecting_;
  return g;
}

Duration StormEngine::reconnect_jitter() {
  const Duration lo = options_.reconnect_delay_min;
  const Duration hi = std::max(options_.reconnect_delay_max, lo);
  Duration delay = hi > lo ? lo + jitter_->uniform_int(0, hi - lo) : lo;
  return std::max<Duration>(delay, kMillisecond);
}

// --- population reconciliation -------------------------------------------

void StormEngine::schedule_spawn_step() {
  if (spawn_scheduled_) return;
  spawn_scheduled_ = true;
  if (ramp_active_ && ramp_interval_ > 0) {
    loop_.schedule_after(ramp_interval_, [this] { spawn_step(); });
  } else {
    loop_.defer([this] { spawn_step(); });
  }
}

void StormEngine::spawn_step() {
  spawn_scheduled_ = false;
  const std::size_t chunk = ramp_active_ ? ramp_chunk_ : kSpawnChunk;
  std::size_t moved = 0;
  while (sessions_.size() > target_ && moved < chunk) {
    destroy_session(*sessions_.back());
    sessions_.pop_back();
    ++moved;
  }
  while (sessions_.size() < target_ && moved < chunk) {
    spawn_session();
    ++moved;
  }
  if (sessions_.size() != target_) {
    schedule_spawn_step();
  } else {
    ramp_active_ = false;
  }
}

void StormEngine::spawn_session() {
  const std::size_t index = next_index_++;
  // Deterministic interleaved striping instead of a random draw: every
  // prefix of the population carries (about) the configured loris
  // fraction, so small runs still mix both kinds.
  const double frac = options_.slow_loris_fraction;
  const bool loris =
      frac > 0 && static_cast<std::uint64_t>(static_cast<double>(index + 1) * frac) >
                      static_cast<std::uint64_t>(static_cast<double>(index) * frac);
  auto owned = std::make_unique<Session>(*this, index, ClientId{options_.client_id_base + index},
                                         loris);
  Session& session = *owned;
  sessions_.push_back(std::move(owned));
  if (loris) {
    connect_session(session);
    return;
  }
  session.held.resize(options_.replicas.size());
  session.client =
      std::make_unique<core::IdemClient>(loop_, session, session.cid, options_.client);
  connect_session(session);
  driver_.add(&session);
}

void StormEngine::destroy_session(Session& session) {
  if (session.client) driver_.remove(&session);
  teardown_conns(session, /*reconnect=*/false);
  if (session.reconnect_timer.valid()) {
    loop_.cancel(session.reconnect_timer);
    session.reconnect_timer = {};
  }
}

// --- connection lifecycle -------------------------------------------------

void StormEngine::connect_session(Session& session) {
  session.ops_since_connect = 0;
  const std::size_t n = options_.replicas.size();
  const std::size_t targets = session.loris ? 1 : n;
  session.conns.clear();
  session.conns.reserve(targets);
  for (std::size_t ci = 0; ci < targets; ++ci) {
    Conn& conn = session.conns.emplace_back(kReadBufferBytes);
    // Loris sessions hold one connection each, striped across replicas.
    conn.replica = session.loris
                       ? static_cast<std::uint32_t>(session.index % n)
                       : static_cast<std::uint32_t>(ci);
  }
  for (std::size_t ci = 0; ci < session.conns.size(); ++ci) {
    open_conn(session, ci);
    if (session.loris) continue;
    // Frames sent while the session waited go out once the connection is
    // up (conn_established flushes them).
    std::vector<std::byte> held = std::exchange(session.held[ci], {});
    if (!held.empty() && session.conns[ci].state != Conn::State::Dead) {
      session.conns[ci].out.push(held);
    }
  }
  // Whole cluster unreachable (or fd exhaustion): retry later instead of
  // leaving the session permanently dark.
  bool any = false;
  for (const Conn& conn : session.conns) any |= conn.state != Conn::State::Dead;
  if (!any && !session.reconnect_timer.valid()) {
    Session* s = &session;
    session.reconnect_timer = loop_.schedule_after(reconnect_jitter(), [this, s] {
      s->reconnect_timer = {};
      connect_session(*s);
    });
  }
}

void StormEngine::open_conn(Session& session, std::size_t ci) {
  Conn& conn = session.conns[ci];
  const rpc::PeerAddress& address = options_.replicas[conn.replica];
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    ++window_.connect_failures;
    return;
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(address.port);
  if (::inet_pton(AF_INET, address.host.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    ++window_.connect_failures;
    return;
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    ++window_.connect_failures;
    return;
  }
  conn.fd = fd;
  conn.state = Conn::State::Connecting;
  conn.connect_started = loop_.now();
  ++connecting_;
  Session* s = &session;
  loop_.watch(fd, EPOLLOUT,
              [this, s, ci](std::uint32_t events) { conn_event(*s, ci, events); });
}

void StormEngine::teardown_conns(Session& session, bool reconnect) {
  ++session.conn_epoch;
  if (session.loris_timer.valid()) {
    loop_.cancel(session.loris_timer);
    session.loris_timer = {};
  }
  for (Conn& conn : session.conns) {
    if (conn.fd >= 0) {
      loop_.unwatch(conn.fd);
      ::close(conn.fd);
      conn.fd = -1;
    }
    if (conn.state == Conn::State::Connected) --open_connections_;
    if (conn.state == Conn::State::Connecting) --connecting_;
    conn.state = Conn::State::Dead;
    conn.out.clear();
  }
  if (reconnect && !session.reconnect_timer.valid()) {
    Session* s = &session;
    session.reconnect_timer = loop_.schedule_after(reconnect_jitter(), [this, s] {
      s->reconnect_timer = {};
      connect_session(*s);
    });
  }
}

void StormEngine::conn_event(Session& session, std::size_t ci, std::uint32_t events) {
  Conn& conn = session.conns[ci];
  if (conn.state == Conn::State::Connecting) {
    int err = 0;
    socklen_t len = sizeof err;
    if ((events & (EPOLLERR | EPOLLHUP)) != 0 ||
        ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ++window_.connect_failures;
      loop_.unwatch(conn.fd);
      ::close(conn.fd);
      conn.fd = -1;
      conn.state = Conn::State::Dead;
      --connecting_;
      conn.out.clear();
      // A refused replica (crashed leader after a stampede) is left dead —
      // the session carries on with the survivors. Only a fully dark
      // session retries from scratch.
      bool any = false;
      for (const Conn& c : session.conns) any |= c.state != Conn::State::Dead;
      if (!any) teardown_conns(session, /*reconnect=*/true);
      return;
    }
    conn_established(session, ci);
    return;
  }
  if (conn.state != Conn::State::Connected) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    on_reset(session);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (!flush_conn(session, ci)) return;
  }
  if ((events & EPOLLIN) != 0) conn_readable(session, ci);
}

void StormEngine::conn_established(Session& session, std::size_t ci) {
  Conn& conn = session.conns[ci];
  conn.state = Conn::State::Connected;
  --connecting_;
  ++open_connections_;
  ++window_.connects;
  window_.connect_latency.record(loop_.now() - conn.connect_started);
  int one = 1;
  ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  conn.want_write = !conn.out.empty();
  loop_.modify(conn.fd, EPOLLIN | (conn.want_write ? EPOLLOUT : 0u));
  if (session.loris) loris_start(session, ci);
}

void StormEngine::on_reset(Session& session) {
  ++window_.resets;
  if (session.loris) ++window_.loris_evictions;
  // Any established connection dropping makes the session reconnect all of
  // them after a jittered delay — the behavior that turns a replica crash
  // into a reconnect stampede.
  teardown_conns(session, /*reconnect=*/true);
}

// --- data path ------------------------------------------------------------

bool StormEngine::flush_conn(Session& session, std::size_t ci) {
  Conn& conn = session.conns[ci];
  while (!conn.out.empty()) {
    const std::span<const std::byte> bytes = conn.out.unwritten();
    const ssize_t written = ::send(conn.fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn.want_write) {
          conn.want_write = true;
          loop_.modify(conn.fd, EPOLLIN | EPOLLOUT);
        }
        return true;
      }
      on_reset(session);
      return false;
    }
    conn.out.consume(static_cast<std::size_t>(written));
  }
  if (conn.want_write) {
    conn.want_write = false;
    loop_.modify(conn.fd, EPOLLIN);
  }
  return true;
}

void StormEngine::conn_readable(Session& session, std::size_t ci) {
  Conn& conn = session.conns[ci];
  const std::uint64_t epoch = session.conn_epoch;
  // One recv per readiness: level-triggered epoll re-arms if more bytes
  // wait, which keeps one chatty connection from starving 10k quiet ones.
  std::span<std::byte> span = conn.reader.write_span(kReadBufferBytes);
  const ssize_t received = ::recv(conn.fd, span.data(), span.size(), 0);
  if (received == 0) {
    on_reset(session);
    return;
  }
  if (received < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    on_reset(session);
    return;
  }
  conn.reader.commit(static_cast<std::size_t>(received));
  const bool ok = conn.reader.drain(
      [this, &session, epoch](std::uint32_t sender, std::uint32_t /*route*/,
                              std::span<const std::byte> payload) {
        // A frame earlier in this batch may have completed the operation
        // and torn the connections down (reconnect_every_ops churn).
        if (session.conn_epoch != epoch) return;
        on_frame(session, sender, payload);
      });
  if (session.conn_epoch != epoch) return;
  if (!ok) on_reset(session);
}

void StormEngine::on_frame(Session& session, std::uint32_t sender,
                           std::span<const std::byte> payload) {
  if (!session.client || !session.client->busy()) return;  // nothing to hear: skip the decode
  std::shared_ptr<const msg::Message> message;
  try {
    message = msg::decode(payload);
  } catch (const std::exception&) {
    return;  // replicas don't send malformed frames; tolerate anyway
  }
  session.client->deliver(sim::NodeId{sender}, std::move(message));
}

void StormEngine::send_frame(Session& session, std::size_t replica,
                             std::span<const std::byte> frame) {
  if (replica >= session.held.size()) return;
  if (session.reconnect_timer.valid()) {
    // Waiting to reconnect: keep the latest frame for the new connection
    // rather than sitting out a retransmission after every reconnect.
    session.held[replica].assign(frame.begin(), frame.end());
    return;
  }
  Conn& conn = session.conns[replica];
  // A refused replica stays dark (fair loss); a connecting one flushes
  // when the handshake completes.
  if (conn.state == Conn::State::Dead) return;
  conn.out.push(frame);
  if (conn.state == Conn::State::Connected) flush_conn(session, replica);
}

void StormEngine::op_completed(Session& session) {
  if (options_.reconnect_every_ops == 0 || session.reconnect_timer.valid()) return;
  if (++session.ops_since_connect >= options_.reconnect_every_ops) {
    teardown_conns(session, /*reconnect=*/true);
  }
}

// --- slow loris -----------------------------------------------------------

void StormEngine::loris_start(Session& session, std::size_t ci) {
  Conn& conn = session.conns[ci];
  const std::vector<std::byte> claim(kLorisClaim, std::byte{0});
  session.loris_frame =
      rpc::encode_frame(consensus::client_address(session.cid).value, 0, claim);
  session.loris_sent = 0;
  // Ship the header plus the first payload byte at once — from here on the
  // server is holding an incomplete frame.
  const std::size_t head = rpc::kFrameHeaderBytes + 1;
  const ssize_t sent = ::send(conn.fd, session.loris_frame.data(), head, MSG_NOSIGNAL);
  if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    on_reset(session);
    return;
  }
  session.loris_sent = sent > 0 ? static_cast<std::size_t>(sent) : 0;
  Session* s = &session;
  session.loris_timer = loop_.schedule_after(options_.loris_trickle, [this, s] {
    s->loris_timer = {};
    loris_tick(*s);
  });
}

void StormEngine::loris_tick(Session& session) {
  if (session.conns.empty() || session.conns[0].state != Conn::State::Connected) return;
  // Trickle one byte per tick, but never the last one: the frame must stay
  // incomplete so only the half-open eviction can reclaim the connection.
  if (session.loris_sent + 1 < session.loris_frame.size()) {
    const ssize_t sent = ::send(session.conns[0].fd,
                                session.loris_frame.data() + session.loris_sent, 1,
                                MSG_NOSIGNAL);
    if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      on_reset(session);
      return;
    }
    if (sent > 0) ++session.loris_sent;
  }
  Session* s = &session;
  session.loris_timer = loop_.schedule_after(options_.loris_trickle, [this, s] {
    s->loris_timer = {};
    loris_tick(*s);
  });
}

}  // namespace idem::real
