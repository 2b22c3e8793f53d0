// Real TCP transport implementing sim::Transport.
//
// Replica-kind nodes get a listener; client-kind nodes get none and
// advertise port 0. Frames are length-prefixed (rpc/framing.hpp) and carry
// consensus::messages encodings. One connection joins two nodes and
// carries both directions: a frame arriving on an accepted connection
// teaches the receiver a route back to its sender, addressed by node id,
// and send() dials only when it has no route. Replicas reach each other
// over their own dialed connections only until the peer's first frame
// arrives: a follower's REQUIRE rides the connection it dialed to the
// leader, and the leader's PROPOSE comes back over it. When both sides
// dialed first, the connection dialed by the lower node id carries both
// directions (each end derives that from the ids, so no handshake is
// needed) and the other is closed at the end of a loop iteration that
// leaves nothing queued on it. So all client nodes of one transport share
// one connection per replica, each replica pair shares one, and every
// frame a node produces for one connection in one loop iteration leaves
// in one write. Storm sessions, their own transports, are answered the
// same way.
//
// Per message, send() encodes into one reused buffer behind the frame
// header — once per multicast, only the route word rewritten per
// destination — and appends the frame to the connection's write buffer.
// A recv that did not fill its span ends the readiness: the socket is
// empty, and level-triggered epoll reports the next bytes.
//
// Failure semantics match the protocols' fair-loss assumption: a send to
// an unknown, crashed or unreachable node is silently dropped (and
// counted), and so is every frame still queued on a connection that
// breaks; a broken connection is torn down and re-established on the next
// send. Malformed inbound streams (oversized length headers, connections
// closed mid-frame) are counted in TransportStats::decode_errors and the
// connection is dropped.
//
// Addressing: listeners bind `listen_host` (loopback by default;
// "0.0.0.0" for multi-host deployments). Remote nodes are declared with
// set_remote() as host:port pairs, so a deployment can span machines —
// the loopback-port overload remains for single-host setups. Clients
// never need to be reachable: they only dial.
//
// Single-threaded: all calls must happen on the EventLoop thread (or
// before that thread starts running the loop).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "rpc/event_loop.hpp"
#include "rpc/framing.hpp"
#include "sim/transport.hpp"

namespace idem::rpc {

struct TransportStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t dropped = 0;        ///< unknown destination, send failure, or
                                    ///< queued on a connection that broke
  std::uint64_t decode_errors = 0;  ///< malformed frames received (bad
                                    ///< encoding, oversized, truncated)
  std::uint64_t write_syscalls = 0;    ///< send calls that moved bytes;
                                       ///< messages_sent / write_syscalls is
                                       ///< the coalescing ratio
  std::uint64_t read_syscalls = 0;     ///< recv calls, EAGAIN included;
                                       ///< messages_delivered / read_syscalls
                                       ///< is the read side's ratio
  std::uint64_t send_queue_overflows = 0;  ///< frames dropped because a
                                           ///< connection's pending-write
                                           ///< queue hit its byte bound
  std::uint64_t accepted_connections = 0;  ///< inbound connections accepted
  std::uint64_t oversized_frames = 0;      ///< connections dropped for a frame
                                           ///< over max_frame_bytes (also
                                           ///< counted in decode_errors)
  std::uint64_t connection_limit_sheds = 0;  ///< inbound connections closed at
                                             ///< accept because the connection
                                             ///< cap was reached
                                             ///< (RejectReason::ConnectionLimit)
  std::uint64_t idle_evictions = 0;       ///< inbound connections evicted for
                                          ///< carrying nothing either way for
                                          ///< idle_timeout
  std::uint64_t half_open_evictions = 0;  ///< inbound connections evicted for
                                          ///< holding a partial frame past
                                          ///< half_open_timeout (slow loris)
};

/// Point-in-time memory footprint of the transport's connection state —
/// the per-connection accounting the admin endpoints surface. Buffer
/// bytes are capacities (what the process actually holds), not fill
/// levels, so a storm of mostly-idle connections is charged honestly.
struct TransportMemory {
  std::size_t inbound_connections = 0;    ///< accepted by our listeners
  std::size_t outbound_connections = 0;   ///< dialed by this transport
  std::size_t inbound_buffer_bytes = 0;   ///< receive-buffer capacity across
                                          ///< all connections
  std::size_t pending_write_bytes = 0;    ///< unsent bytes queued across all
                                          ///< connections (both directions)

  std::size_t total_bytes() const { return inbound_buffer_bytes + pending_write_bytes; }
  /// Average bytes held per open connection (0 when none are open).
  double per_connection() const {
    std::size_t conns = inbound_connections + outbound_connections;
    return conns == 0 ? 0.0 : static_cast<double>(total_bytes()) / static_cast<double>(conns);
  }
};

/// Capacity a drained write buffer keeps. One large frame (a
/// StateResponse may be 64 MiB) grows the buffer past it; the buffer is
/// released once that drains, so it does not stay pinned per connection.
constexpr std::size_t kRetainedWriteBytes = 4 * kReadChunkBytes;

/// Per-connection bytes awaiting transmission: queued frames back to back
/// in one buffer, written with one send per event-loop iteration. `head`
/// marks how far writes got, so a partial write resumes at the exact byte.
/// Frames stay countable — the unwritten ones die with a broken connection
/// and count as dropped one each. Separate from the socket code so tests
/// can drive partial-write sequences without a kernel.
class PendingWrites {
 public:
  bool empty() const { return head_ == bytes_.size(); }
  /// Unwritten bytes.
  std::size_t size() const { return bytes_.size() - head_; }
  /// Frames not yet completely written (a partly written one included).
  std::size_t frames() const { return frames_; }
  /// Buffer capacity held (memory accounting).
  std::size_t capacity() const { return bytes_.capacity(); }
  /// The unwritten bytes, ready for one send.
  std::span<const std::byte> unwritten() const {
    return std::span<const std::byte>(bytes_).subspan(head_);
  }

  /// Queues one whole frame (header included).
  void push(std::span<const std::byte> frame);

  /// Advances past `written` bytes of unwritten(). Frames completed by them
  /// stop counting; a drained buffer rewinds (and gives back what one
  /// large frame grew it to).
  void consume(std::size_t written);

  /// Forgets everything queued.
  void clear();

 private:
  std::vector<std::byte> bytes_;
  std::size_t head_ = 0;        ///< first unwritten byte
  std::size_t frame_head_ = 0;  ///< start of the first frame not completely written
  std::size_t frames_ = 0;      ///< frames not completely written
};

/// Where a node can be reached: numeric IPv4 host + TCP port.
struct PeerAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Parses "host:port" (host optional: ":9100" and "9100" mean loopback).
/// Returns nullopt on malformed input or a port outside [1, 65535].
std::optional<PeerAddress> parse_address(const std::string& text);

struct TcpTransportConfig {
  /// When non-zero, the first locally registered replica node binds this
  /// port instead of an ephemeral one (multi-process deployments agree on
  /// fixed ports up front). Further replicas keep getting ephemeral ports.
  std::uint16_t fixed_port = 0;
  /// Numeric IPv4 address the listeners bind ("0.0.0.0" to accept
  /// non-local peers).
  std::string listen_host = "127.0.0.1";
  /// Maximum accepted inbound frame payload; larger length headers count
  /// as decode errors and drop the connection.
  std::size_t max_frame_bytes = kMaxFrameBytes;
  /// Byte bound on each connection's pending-write queue. A frame that
  /// would push the queue past this is dropped (fair loss) and counted in
  /// TransportStats::send_queue_overflows — backpressure instead of
  /// unbounded buffering when a peer stops reading.
  std::size_t max_pending_write_bytes = 8 * 1024 * 1024;

  // --- accept-path hardening (connection storms) ---

  /// Maximum connections accepted per listener readiness pass. A SYN
  /// flood's backlog is drained in bursts of this size with a deferred
  /// continuation between bursts, so accepting thousands of connections
  /// never starves the established connections' I/O or due timers.
  std::size_t accept_burst = 256;
  /// Cap on concurrently open inbound connections across the transport
  /// (0 = unlimited). At the cap, newly accepted connections are closed
  /// immediately — an early shed the peer observes as a reset, counted in
  /// TransportStats::connection_limit_sheds and classified as
  /// RejectReason::ConnectionLimit in the metrics registry.
  std::size_t max_inbound_connections = 0;
  /// Initial receive-buffer capacity per connection (also the recv chunk
  /// size). The default suits a handful of replica peers; servers
  /// expecting thousands of small-frame client connections shrink it so
  /// per-connection memory stays bounded. Buffers still grow on demand up
  /// to max_frame_bytes.
  std::size_t read_buffer_bytes = kReadChunkBytes;
  /// Evict an inbound connection that has carried nothing either way for
  /// this long (0 = never). Off by default: replica peers are legitimately
  /// silent between bursts. Client-facing servers enable it to reclaim
  /// connections from hosts that connect and hold.
  Duration idle_timeout = 0;
  /// Evict an inbound connection that has held an incomplete frame for
  /// this long (0 = never) — the slow-loris defence: trickling one byte
  /// per second through a frame does not reset the clock, only a
  /// completed frame does. Both timeouts are checked by one sweep, every
  /// quarter of the shorter one (clamped to [10ms, 1s]), so an eviction
  /// lands up to that much after its timeout.
  Duration half_open_timeout = 0;
};

class TcpTransport final : public sim::Transport {
 public:
  explicit TcpTransport(EventLoop& loop, TcpTransportConfig config = {});
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  // --- sim::Transport ---
  /// Registers a local node. A replica binds a listener on `listen_host`
  /// (ephemeral port; query it with port_of); a client binds none.
  void add_node(sim::NodeId id, sim::NodeKind kind, sim::Endpoint* endpoint) override;
  /// Unregisters a node: closes its listener and the connections accepted
  /// for it (peers see resets/refusals — exactly what a crash looks like).
  void remove_node(sim::NodeId id) override;
  void send(sim::NodeId from, sim::NodeId to, sim::PayloadPtr message) override;

  /// Listening port of a locally registered node (0 for a client node or
  /// an unknown one).
  std::uint16_t port_of(sim::NodeId id) const;

  /// Declares where a non-local node can be reached, enabling multi-
  /// process and multi-host deployments (every process registers its own
  /// nodes and the addresses of the others).
  void set_remote(sim::NodeId id, const PeerAddress& address);
  /// Loopback convenience for single-host deployments.
  void set_remote(sim::NodeId id, std::uint16_t port) {
    set_remote(id, PeerAddress{"127.0.0.1", port});
  }

  const TransportStats& stats() const { return stats_; }

  /// Per-connection memory accounting (admin /stats, /metrics gauges).
  TransportMemory memory() const;

  /// Names this transport's series on `registry` ("tcp." and its sheds'
  /// reject reasons); read it on the loop thread.
  void register_metrics(obs::MetricsRegistry& registry) const;

 private:
  struct LocalNode;
  struct Connection;

  void accept_ready(LocalNode& node);
  Connection* dial(std::uint32_t dest, const PeerAddress& address);
  Connection& adopt(std::unique_ptr<Connection> connection, std::uint32_t events);
  void connection_event(int fd, std::uint32_t events);
  void read_ready(Connection& connection);
  void learn_route(Connection& connection, std::uint32_t sender, std::uint32_t port);
  void schedule_retire(Connection& dialed);
  void retire_if_unused(Connection& dialed);
  void close_connection(Connection& connection);
  void set_events(Connection& connection, std::uint32_t events);
  void schedule_flush(Connection& connection);
  void flush(Connection& connection);
  void arm_sweep();
  void sweep_connections();

  EventLoop& loop_;
  TcpTransportConfig config_;
  bool fixed_port_used_ = false;
  std::unordered_map<std::uint32_t, std::unique_ptr<LocalNode>> locals_;
  std::unordered_map<std::uint32_t, PeerAddress> remotes_;
  /// Every open connection, dialed or accepted, by fd.
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  /// Destination node → the connection this transport dialed to it.
  std::unordered_map<std::uint32_t, Connection*> dialed_;
  /// Answer routes, keyed by route_key(local node, remote sender): the
  /// connection accepted by the local node's listener that the sender's
  /// frames arrive on, and answers to it travel back over.
  std::unordered_map<std::uint64_t, Connection*> routes_;
  /// The last frame built, and what it encodes: a message sent to several
  /// nodes (a client's REQUEST, a leader's PROPOSE) is encoded once, and
  /// only its route word is rewritten per destination. Holding the message
  /// keeps its address from being reused. The buffer is recycled by every
  /// build, so warmed-up sends do not allocate.
  sim::PayloadPtr framed_message_;
  std::uint32_t framed_from_ = 0;
  std::vector<std::byte> framed_;
  sim::EventId sweep_timer_;
  TransportStats stats_;
};

}  // namespace idem::rpc
