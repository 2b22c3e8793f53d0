#include "rpc/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "common/logging.hpp"
#include "consensus/messages.hpp"

namespace idem::rpc {

namespace {

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// routes_ key: answers from `local` to `remote`.
std::uint64_t route_key(std::uint32_t local, std::uint32_t remote) {
  return (std::uint64_t{local} << 32) | remote;
}

bool resolve(const std::string& host, std::uint16_t port, sockaddr_in& out) {
  out = sockaddr_in{};
  out.sin_family = AF_INET;
  out.sin_port = htons(port);
  if (host.empty() || host == "localhost") {
    out.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return true;
  }
  return ::inet_pton(AF_INET, host.c_str(), &out.sin_addr) == 1;
}

}  // namespace

std::optional<PeerAddress> parse_address(const std::string& text) {
  PeerAddress address;
  std::string port_part = text;
  std::size_t colon = text.rfind(':');
  if (colon != std::string::npos) {
    address.host = text.substr(0, colon);
    port_part = text.substr(colon + 1);
  }
  if (address.host.empty()) address.host = "127.0.0.1";
  if (port_part.empty()) return std::nullopt;
  char* end = nullptr;
  unsigned long port = std::strtoul(port_part.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port == 0 || port > 65535) return std::nullopt;
  sockaddr_in probe;
  if (!resolve(address.host, 1, probe)) return std::nullopt;
  address.port = static_cast<std::uint16_t>(port);
  return address;
}

struct TcpTransport::LocalNode {
  sim::NodeId id;
  sim::Endpoint* endpoint = nullptr;
  int listen_fd = -1;      // -1 for client nodes: they only dial
  std::uint16_t port = 0;  // 0 for client nodes
};

/// One TCP connection, whichever side opened it. A dialed connection
/// carries our nodes' frames to `node` and brings back its answers, each
/// addressed to one of our nodes; an accepted one carries peers' frames to
/// our `node` and its answers back to them.
struct TcpTransport::Connection {
  static constexpr Time kNoPartial = -1;

  int fd = -1;
  bool dialed = false;
  bool connected = true;     ///< false while a dial's handshake is pending
  std::uint32_t node = 0;    ///< dialed: the destination; accepted: our listener's node
  std::string peer_host;     ///< accepted: learned at accept; return address for senders
  FrameReader reader;
  PendingWrites out;
  std::uint32_t events = 0;  ///< the epoll mask currently registered
  bool flush_scheduled = false;  ///< a deferred end-of-iteration flush is queued
  bool retire_scheduled = false;  ///< a deferred retire_if_unused is queued
  /// Accepted: routes_ keys of the senders whose answers travel over this
  /// connection. A key is appended each time its route moves here, so
  /// keeping it costs O(1) per frame however many sessions share the
  /// connection.
  std::vector<std::uint64_t> routes;
  Time last_activity = 0;           ///< accept time, then the last recv or send
                                    ///< that moved bytes; only the idle sweep
                                    ///< reads it, so only it costs a clock read
  Time partial_since = kNoPartial;  ///< when the currently buffered partial
                                    ///< frame started (completed frames reset it)

  Connection(std::size_t max_frame, std::size_t initial_capacity)
      : reader(max_frame, initial_capacity) {}
};

void PendingWrites::push(std::span<const std::byte> frame) {
  if (bytes_.size() + frame.size() > bytes_.capacity() && frame_head_ > 0) {
    // Out of room: drop the written frames from the front before growing.
    bytes_.erase(bytes_.begin(), bytes_.begin() + static_cast<std::ptrdiff_t>(frame_head_));
    head_ -= frame_head_;
    frame_head_ = 0;
  }
  bytes_.insert(bytes_.end(), frame.begin(), frame.end());
  ++frames_;
}

void PendingWrites::consume(std::size_t written) {
  head_ += written;
  while (frames_ > 0) {
    std::size_t end = frame_head_ + kFrameHeaderBytes + load_frame_word(&bytes_[frame_head_]);
    if (end > head_) break;
    frame_head_ = end;
    --frames_;
  }
  if (empty()) clear();
}

void PendingWrites::clear() {
  if (bytes_.capacity() > kRetainedWriteBytes) {
    std::vector<std::byte>().swap(bytes_);
  } else {
    bytes_.clear();
  }
  head_ = 0;
  frame_head_ = 0;
  frames_ = 0;
}

TcpTransport::TcpTransport(EventLoop& loop, TcpTransportConfig config)
    : loop_(loop), config_(std::move(config)) {
  arm_sweep();
}

TcpTransport::~TcpTransport() {
  if (sweep_timer_.valid()) loop_.cancel(sweep_timer_);
  for (auto& [fd, connection] : connections_) {
    loop_.unwatch(fd);
    ::close(fd);
  }
  for (auto& [id, node] : locals_) {
    if (node->listen_fd >= 0) {
      loop_.unwatch(node->listen_fd);
      ::close(node->listen_fd);
    }
  }
}

void TcpTransport::add_node(sim::NodeId id, sim::NodeKind kind, sim::Endpoint* endpoint) {
  auto node = std::make_unique<LocalNode>();
  node->id = id;
  node->endpoint = endpoint;
  if (kind == sim::NodeKind::Client) {
    // Clients only dial: their answers come back over those connections.
    locals_[id.value] = std::move(node);
    return;
  }

  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  std::uint16_t requested = 0;
  if (config_.fixed_port != 0 && !fixed_port_used_) {
    requested = config_.fixed_port;
    fixed_port_used_ = true;
  }
  sockaddr_in addr;
  if (!resolve(config_.listen_host, requested, addr)) {
    ::close(fd);
    throw std::runtime_error("listen_host is not a numeric IPv4 address: " +
                             config_.listen_host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 128) < 0) {
    ::close(fd);
    throw std::runtime_error(std::string("bind/listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  node->listen_fd = fd;
  node->port = ntohs(addr.sin_port);

  LocalNode* raw = node.get();
  loop_.watch(fd, EPOLLIN, [this, raw](std::uint32_t) { accept_ready(*raw); });
  locals_[id.value] = std::move(node);
}

void TcpTransport::remove_node(sim::NodeId id) {
  auto it = locals_.find(id.value);
  if (it == locals_.end()) return;
  LocalNode& node = *it->second;
  if (node.listen_fd >= 0) {
    loop_.unwatch(node.listen_fd);
    ::close(node.listen_fd);
    std::vector<Connection*> accepted;
    for (auto& [fd, connection] : connections_) {
      if (!connection->dialed && connection->node == id.value) accepted.push_back(connection.get());
    }
    for (Connection* connection : accepted) close_connection(*connection);
  }
  locals_.erase(it);
}

std::uint16_t TcpTransport::port_of(sim::NodeId id) const {
  auto it = locals_.find(id.value);
  return it == locals_.end() ? 0 : it->second->port;
}

void TcpTransport::set_remote(sim::NodeId id, const PeerAddress& address) {
  remotes_[id.value] = address;
}

void TcpTransport::accept_ready(LocalNode& node) {
  for (std::size_t accepted = 0; accepted < config_.accept_burst; ++accepted) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    int fd = ::accept4(node.listen_fd, reinterpret_cast<sockaddr*>(&peer), &peer_len,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or error: backlog drained for now
    if (config_.max_inbound_connections != 0 &&
        connections_.size() - dialed_.size() >= config_.max_inbound_connections) {
      // At the connection cap: shed at accept, before the connection costs
      // a buffer or a watch. The peer sees an immediate close (reset once
      // it writes) — the connection-limit early rejection
      // (RejectReason::ConnectionLimit in the metrics registry).
      ++stats_.connection_limit_sheds;
      ::close(fd);
      continue;
    }
    set_nodelay(fd);
    auto connection =
        std::make_unique<Connection>(config_.max_frame_bytes, config_.read_buffer_bytes);
    connection->fd = fd;
    connection->node = node.id.value;
    connection->last_activity = loop_.now();
    char host[INET_ADDRSTRLEN] = "127.0.0.1";
    if (peer.sin_family == AF_INET) {
      ::inet_ntop(AF_INET, &peer.sin_addr, host, sizeof(host));
    }
    connection->peer_host = host;
    ++stats_.accepted_connections;
    adopt(std::move(connection), EPOLLIN);
  }
  // Burst budget spent with the backlog possibly non-empty: continue in
  // the next loop iteration (deferred tasks deferred from a deferred task
  // run one iteration later), so a connect flood drains in bounded slices
  // and established connections' I/O and due timers run in between.
  std::uint32_t id = node.id.value;
  loop_.defer([this, id] {
    if (auto it = locals_.find(id); it != locals_.end()) accept_ready(*it->second);
  });
}

TcpTransport::Connection* TcpTransport::dial(std::uint32_t dest, const PeerAddress& address) {
  sockaddr_in addr;
  if (!resolve(address.host, address.port, addr)) return nullptr;

  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  set_nodelay(fd);

  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    ::close(fd);
    return nullptr;
  }

  auto connection =
      std::make_unique<Connection>(config_.max_frame_bytes, config_.read_buffer_bytes);
  connection->fd = fd;
  connection->dialed = true;
  connection->connected = (rc == 0);
  connection->node = dest;
  // A pending handshake reports completion as writability.
  return &adopt(std::move(connection), rc == 0 ? EPOLLIN : EPOLLIN | EPOLLOUT);
}

TcpTransport::Connection& TcpTransport::adopt(std::unique_ptr<Connection> connection,
                                              std::uint32_t events) {
  const int fd = connection->fd;
  Connection& raw = *connection;
  raw.events = events;
  if (raw.dialed) dialed_[raw.node] = &raw;
  connections_[fd] = std::move(connection);
  loop_.watch(fd, events, [this, fd](std::uint32_t ready) { connection_event(fd, ready); });
  return raw;
}

void TcpTransport::close_connection(Connection& connection) {
  // Frames still queued die with the connection: fair loss, counted.
  stats_.dropped += connection.out.frames();
  loop_.unwatch(connection.fd);
  ::close(connection.fd);
  if (connection.dialed) dialed_.erase(connection.node);
  // Retire answer routes that still point here (a reconnect may already
  // have repointed them at a newer connection — leave those alone).
  for (std::uint64_t key : connection.routes) {
    if (auto route = routes_.find(key); route != routes_.end() && route->second == &connection) {
      routes_.erase(route);
    }
  }
  connections_.erase(connection.fd);  // destroys `connection`
}

void TcpTransport::schedule_retire(Connection& dialed) {
  // Never closed inside send(): a send may run inside this connection's own
  // read (an endpoint answering the frame it is being handed), and closing
  // it there would free the reader mid-drain. The deferred task re-resolves
  // the connection by fd, as schedule_flush does.
  if (dialed.retire_scheduled) return;
  dialed.retire_scheduled = true;
  const int fd = dialed.fd;
  loop_.defer([this, fd] {
    auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    it->second->retire_scheduled = false;
    if (it->second->dialed) retire_if_unused(*it->second);
  });
}

void TcpTransport::retire_if_unused(Connection& dialed) {
  // Both sides dialed and the peer's connection won. Once ours has nothing
  // queued, and no local node still prefers it (one below the peer's id,
  // or one the peer never dialed), close it: the peer reads what is in
  // flight, then a clean end of stream, and drops its end too.
  if (!dialed.connected || !dialed.out.empty()) return;
  for (const auto& [id, node] : locals_) {
    if (id < dialed.node || !routes_.contains(route_key(id, dialed.node))) return;
  }
  close_connection(dialed);
}

void TcpTransport::connection_event(int fd, std::uint32_t events) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& connection = *it->second;
  if (!connection.connected) {
    int error = 0;
    socklen_t len = sizeof(error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len);
    if (error != 0 || (events & (EPOLLERR | EPOLLHUP))) {
      // Connection refused or reset: fair-loss drop of everything queued.
      close_connection(connection);
      return;
    }
    connection.connected = true;
    events |= EPOLLOUT;  // write what queued during the handshake
  }
  if (events & EPOLLOUT) {
    flush(connection);  // may close the connection on error
    if (!connections_.contains(fd)) return;
  }
  if (events & (EPOLLIN | EPOLLERR | EPOLLHUP)) read_ready(connection);
}

void TcpTransport::learn_route(Connection& connection, std::uint32_t sender,
                               std::uint32_t port) {
  // Answers to the sender travel back over the connection its frames
  // arrive on, addressed by node id. The newest connection wins.
  auto [route, inserted] = routes_.try_emplace(route_key(connection.node, sender), &connection);
  if (!inserted) {
    if (route->second == &connection) return;  // known here: nothing new to learn
    route->second = &connection;
  }
  connection.routes.push_back(route->first);
  if (port != 0 && !locals_.contains(sender)) {
    // The sender's listener, at the IP the connection came from: where to
    // dial it once this connection is gone. This is how replicas reach
    // peers they were configured with only by port, or not at all, in
    // multi-process deployments.
    remotes_[sender] = PeerAddress{connection.peer_host, static_cast<std::uint16_t>(port)};
  }
}

void TcpTransport::read_ready(Connection& connection) {
  for (;;) {
    // Recv straight into the reader's reuse buffer: no intermediate copy,
    // and no allocation once the buffer has warmed up to the connection's
    // largest frame.
    std::span<std::byte> dst = connection.reader.write_span(config_.read_buffer_bytes);
    ssize_t n = ::recv(connection.fd, dst.data(), dst.size(), 0);
    ++stats_.read_syscalls;
    if (n > 0) {
      connection.reader.commit(static_cast<std::size_t>(n));
      if (config_.idle_timeout > 0) connection.last_activity = loop_.now();
      bool completed_frame = false;
      bool ok = connection.reader.drain(
          [&](std::uint32_t sender, std::uint32_t route, std::span<const std::byte> payload) {
            completed_frame = true;
            // On a dialed connection the route word names which of our
            // nodes an answer is for; on an accepted one it is the sender's
            // listen port, and the frame is for the listener's node.
            std::uint32_t to = route;
            if (!connection.dialed) {
              learn_route(connection, sender, route);
              to = connection.node;
            }
            auto local_it = locals_.find(to);
            if (local_it == locals_.end()) return;
            try {
              auto message = msg::decode(payload);
              ++stats_.messages_delivered;
              local_it->second->endpoint->deliver(sim::NodeId{sender}, std::move(message));
            } catch (const CodecError&) {
              ++stats_.decode_errors;
            }
          });
      // Half-open tracking: a buffered partial frame starts (or keeps) the
      // eviction clock; completing any frame restarts it — so pipelined
      // bursts are safe while a trickled never-ending frame is not.
      if (!connection.reader.truncated()) {
        connection.partial_since = Connection::kNoPartial;
      } else if (completed_frame || connection.partial_since == Connection::kNoPartial) {
        connection.partial_since = loop_.now();
      }
      if (!ok) {
        // Oversized length header: poisoned stream, count and drop it.
        ++stats_.decode_errors;
        ++stats_.oversized_frames;
        LOG_WARN("tcp", "dropping connection to node ", connection.node, " (oversized frame)");
        close_connection(connection);
        return;
      }
      // A read that left space unfilled emptied the socket: level-triggered
      // epoll reports the next bytes, so asking again would only earn an
      // EAGAIN. A read that filled its span (a bulk state transfer) may
      // have left more behind: read on.
      if (static_cast<std::size_t>(n) < dst.size()) return;
      continue;
    }
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
      // Peer closed or reset. Bytes of an unfinished frame mean the stream
      // was cut mid-message: account for the truncated frame.
      if (connection.reader.truncated()) ++stats_.decode_errors;
      close_connection(connection);
      return;
    }
    return;  // EAGAIN: wait for more data
  }
}

void TcpTransport::set_events(Connection& connection, std::uint32_t events) {
  if (connection.events == events) return;
  connection.events = events;
  loop_.modify(connection.fd, events);
}

void TcpTransport::schedule_flush(Connection& connection) {
  // Coalescing point: every send during this loop iteration appends to the
  // pending buffer, and one deferred flush writes it all with a single
  // send. The deferred task re-resolves the connection by fd — it may
  // have been closed (and the fd recycled) before the end of the
  // iteration, in which case flushing the newer connection early is
  // harmless.
  if (connection.flush_scheduled) return;
  connection.flush_scheduled = true;
  const int fd = connection.fd;
  loop_.defer([this, fd] {
    auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    it->second->flush_scheduled = false;
    if (it->second->connected) flush(*it->second);
  });
}

void TcpTransport::flush(Connection& connection) {
  while (!connection.out.empty()) {
    std::span<const std::byte> bytes = connection.out.unwritten();
    ssize_t n = ::send(connection.fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n > 0) {
      ++stats_.write_syscalls;
      // An accepted connection may be busy only in our direction (a peer
      // replica's link during a lull on its side): that is use too.
      if (config_.idle_timeout > 0) connection.last_activity = loop_.now();
      connection.out.consume(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      set_events(connection, EPOLLIN | EPOLLOUT);
      return;
    }
    close_connection(connection);  // peer gone; invalidates `connection`
    return;
  }
  // Fully flushed: wake only for reads until there is more to send.
  set_events(connection, EPOLLIN);
}

void TcpTransport::arm_sweep() {
  if (config_.idle_timeout <= 0 && config_.half_open_timeout <= 0) return;
  Duration shortest = config_.idle_timeout > 0 ? config_.idle_timeout : 0;
  if (config_.half_open_timeout > 0 && (shortest == 0 || config_.half_open_timeout < shortest)) {
    shortest = config_.half_open_timeout;
  }
  const Duration interval = std::clamp<Duration>(shortest / 4, 10 * kMillisecond, kSecond);
  sweep_timer_ = loop_.schedule_after(interval, [this] {
    sweep_connections();
    arm_sweep();
  });
}

void TcpTransport::sweep_connections() {
  const Time now = loop_.now();
  // Two-phase: collect first, then evict — close_connection mutates
  // connections_. Only accepted connections are swept: our own dialed
  // ones are legitimately silent on the read side.
  std::vector<int> half_open;
  std::vector<int> idle;
  for (const auto& [fd, connection] : connections_) {
    if (connection->dialed) continue;
    if (config_.half_open_timeout > 0 && connection->partial_since != Connection::kNoPartial &&
        now - connection->partial_since >= config_.half_open_timeout) {
      half_open.push_back(fd);
    } else if (config_.idle_timeout > 0 &&
               now - connection->last_activity >= config_.idle_timeout) {
      idle.push_back(fd);
    }
  }
  for (int fd : half_open) {
    if (auto it = connections_.find(fd); it != connections_.end()) {
      ++stats_.half_open_evictions;
      ++stats_.decode_errors;  // the trickled frame dies truncated
      close_connection(*it->second);
    }
  }
  for (int fd : idle) {
    if (auto it = connections_.find(fd); it != connections_.end()) {
      ++stats_.idle_evictions;
      close_connection(*it->second);
    }
  }
}

TransportMemory TcpTransport::memory() const {
  TransportMemory memory;
  memory.outbound_connections = dialed_.size();
  memory.inbound_connections = connections_.size() - dialed_.size();
  for (const auto& [fd, connection] : connections_) {
    memory.inbound_buffer_bytes += connection->reader.capacity();
    memory.pending_write_bytes += connection->out.size();
  }
  return memory;
}

void TcpTransport::register_metrics(obs::MetricsRegistry& registry) const {
  registry.add_counter("tcp.messages_sent", stats_.messages_sent);
  registry.add_counter("tcp.bytes_sent", stats_.bytes_sent);
  registry.add_counter("tcp.messages_delivered", stats_.messages_delivered);
  registry.add_counter("tcp.dropped", stats_.dropped);
  registry.add_counter("tcp.decode_errors", stats_.decode_errors);
  registry.add_counter("tcp.read_syscalls", stats_.read_syscalls);
  registry.add_counter("tcp.write_syscalls", stats_.write_syscalls);
  registry.add_counter("tcp.accepted_connections", stats_.accepted_connections);
  registry.add_counter("tcp.idle_evictions", stats_.idle_evictions);
  registry.add_counter("tcp.half_open_evictions", stats_.half_open_evictions);
  registry.add_counter(obs::reject_series(RejectReason::BackpressureShed),
                       stats_.send_queue_overflows);
  registry.add_counter(obs::reject_series(RejectReason::OversizedFrame),
                       stats_.oversized_frames);
  registry.add_counter(obs::reject_series(RejectReason::ConnectionLimit),
                       stats_.connection_limit_sheds);
  registry.add_gauge("tcp.inbound_connections", [this] {
    return static_cast<double>(connections_.size() - dialed_.size());
  });
  registry.add_gauge("tcp.outbound_connections",
                     [this] { return static_cast<double>(dialed_.size()); });
  registry.add_gauge("tcp.pending_write_bytes",
                     [this] { return static_cast<double>(memory().pending_write_bytes); });
  registry.add_gauge("tcp.connection_memory_bytes",
                     [this] { return static_cast<double>(memory().total_bytes()); });
}

void TcpTransport::send(sim::NodeId from, sim::NodeId to, sim::PayloadPtr message) {
  const auto* typed = dynamic_cast<const msg::Message*>(message.get());
  if (typed == nullptr) {
    ++stats_.dropped;
    return;
  }

  // A node that dialed us gets the frame over its connection, addressed
  // by its node id. When we dialed it as well, the connection dialed by
  // the lower id carries both directions: the peer applies the same rule,
  // so both ends pick the same connection, and the loser retires its own
  // once it has drained.
  // Any other node is dialed (a listener of ours, or a declared or learned
  // address), and the frame carries the sender's listen port.
  Connection* connection = nullptr;
  std::uint32_t route = to.value;
  auto dialed = dialed_.find(to.value);
  if (auto answer = routes_.find(route_key(from.value, to.value));
      answer != routes_.end() && (dialed == dialed_.end() || to.value < from.value)) {
    connection = answer->second;
    if (dialed != dialed_.end()) schedule_retire(*dialed->second);
  } else if (dialed != dialed_.end()) {
    connection = dialed->second;
  } else if (auto local = locals_.find(to.value);
             local != locals_.end() && local->second->port != 0) {
    connection = dial(to.value, PeerAddress{"127.0.0.1", local->second->port});
  } else if (auto remote = remotes_.find(to.value); remote != remotes_.end()) {
    connection = dial(to.value, remote->second);
  }
  if (connection == nullptr) {
    ++stats_.dropped;
    return;
  }
  if (connection->dialed) {
    auto sender = locals_.find(from.value);
    route = sender == locals_.end() ? 0 : sender->second->port;
  }

  if (message == framed_message_ && from.value == framed_from_) {
    set_frame_route(framed_, route);  // the same message to another node
  } else {
    framed_message_.reset();  // framed_ is rebuilt below
    build_frame(framed_, from.value, route, [typed](ByteWriter& w) { typed->encode_to(w); });
    framed_message_ = std::move(message);
    framed_from_ = from.value;
  }
  if (connection->out.size() + framed_.size() > config_.max_pending_write_bytes) {
    // The peer stopped draining: shed this frame (fair loss) rather than
    // buffer without bound.
    ++stats_.send_queue_overflows;
    ++stats_.dropped;
    return;
  }
  stats_.messages_sent += 1;
  stats_.bytes_sent += framed_.size();
  connection->out.push(framed_);
  // Not yet connected: the handshake's completion flushes.
  if (connection->connected) schedule_flush(*connection);
}

}  // namespace idem::rpc
