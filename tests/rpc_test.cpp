// Tests for the real-time runtime and TCP transport: event-loop timers,
// frame reassembly, socket round trips, and — the headline — the complete
// IDEM protocol running over real kernel TCP instead of the simulator.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <optional>

#include "app/kv_store.hpp"
#include "idem/acceptance.hpp"
#include "idem/client.hpp"
#include "idem/replica.hpp"
#include "rpc/event_loop.hpp"
#include "rpc/framing.hpp"
#include "rpc/tcp_transport.hpp"
#include "test_util.hpp"

namespace idem {
namespace {

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

TEST(EventLoopTest, TimersFireInOrder) {
  rpc::EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(20 * kMillisecond, [&] { order.push_back(2); });
  loop.schedule_after(5 * kMillisecond, [&] { order.push_back(1); });
  loop.schedule_after(40 * kMillisecond, [&] {
    order.push_back(3);
    loop.stop();
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTest, CancelPreventsTimer) {
  rpc::EventLoop loop;
  bool fired = false;
  auto id = loop.schedule_after(5 * kMillisecond, [&] { fired = true; });
  EXPECT_TRUE(loop.cancel(id));
  loop.run_for(20 * kMillisecond);
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, NowAdvancesWithWallClock) {
  rpc::EventLoop loop;
  Time before = loop.now();
  loop.run_for(10 * kMillisecond);
  EXPECT_GE(loop.now() - before, 9 * kMillisecond);
}

TEST(EventLoopTest, RngStreamsAreDeterministic) {
  rpc::EventLoop a(7), b(7);
  EXPECT_EQ(a.rng("x").next_u64(), b.rng("x").next_u64());
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(FramingTest, RoundTripSingleFrame) {
  auto payload = test::put_cmd("k", "v");
  auto frame = rpc::encode_frame(42, 9999, payload);
  rpc::FrameReader reader;
  int frames = 0;
  ASSERT_TRUE(reader.feed(frame, [&](std::uint32_t sender, std::uint32_t sender_port,
                                     std::span<const std::byte> body) {
    ++frames;
    EXPECT_EQ(sender, 42u);
    EXPECT_EQ(sender_port, 9999u);
    EXPECT_TRUE(std::equal(body.begin(), body.end(), payload.begin(), payload.end()));
  }));
  EXPECT_EQ(frames, 1);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FramingTest, ReassemblesSplitFrames) {
  auto payload = test::put_cmd("key", "value");
  auto frame = rpc::encode_frame(7, 0, payload);
  rpc::FrameReader reader;
  int frames = 0;
  // Feed one byte at a time.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    ASSERT_TRUE(reader.feed(
        std::span<const std::byte>(&frame[i], 1),
        [&](std::uint32_t, std::uint32_t, std::span<const std::byte>) { ++frames; }));
  }
  EXPECT_EQ(frames, 1);
}

TEST(FramingTest, MultipleFramesPerRead) {
  auto a = rpc::encode_frame(1, 0, test::put_cmd("a", "1"));
  auto b = rpc::encode_frame(2, 0, test::put_cmd("b", "2"));
  std::vector<std::byte> both = a;
  both.insert(both.end(), b.begin(), b.end());
  rpc::FrameReader reader;
  std::vector<std::uint32_t> senders;
  ASSERT_TRUE(reader.feed(
      both, [&](std::uint32_t sender, std::uint32_t, std::span<const std::byte>) {
        senders.push_back(sender);
      }));
  EXPECT_EQ(senders, (std::vector<std::uint32_t>{1, 2}));
}

TEST(FramingTest, RejectsOversizedFrame) {
  std::vector<std::byte> bogus(12);
  bogus[0] = std::byte{0xFF};
  bogus[1] = std::byte{0xFF};
  bogus[2] = std::byte{0xFF};
  bogus[3] = std::byte{0xFF};  // length = 4 GiB
  rpc::FrameReader reader;
  EXPECT_FALSE(reader.feed(
      bogus, [](std::uint32_t, std::uint32_t, std::span<const std::byte>) {}));
  EXPECT_EQ(reader.error(), rpc::FrameReader::Error::Oversized);
  // The stream is poisoned: further feeds fail without invoking the callback.
  int frames = 0;
  auto good = rpc::encode_frame(1, 0, test::put_cmd("k", "v"));
  EXPECT_FALSE(reader.feed(
      good, [&](std::uint32_t, std::uint32_t, std::span<const std::byte>) { ++frames; }));
  EXPECT_EQ(frames, 0);
}

TEST(FramingTest, ConfigurableBoundRejectsJustAboveLimit) {
  rpc::FrameReader reader(/*max_frame=*/16);
  std::vector<std::byte> payload(17, std::byte{0xAB});
  auto frame = rpc::encode_frame(3, 0, payload);
  EXPECT_FALSE(reader.feed(
      frame, [](std::uint32_t, std::uint32_t, std::span<const std::byte>) {}));
  EXPECT_EQ(reader.error(), rpc::FrameReader::Error::Oversized);

  // At the limit the frame passes.
  rpc::FrameReader ok_reader(/*max_frame=*/16);
  std::vector<std::byte> fitting(16, std::byte{0xCD});
  int frames = 0;
  EXPECT_TRUE(ok_reader.feed(
      rpc::encode_frame(3, 0, fitting),
      [&](std::uint32_t, std::uint32_t, std::span<const std::byte> body) {
        ++frames;
        EXPECT_EQ(body.size(), 16u);
      }));
  EXPECT_EQ(frames, 1);
}

TEST(FramingTest, ReportsTruncatedStream) {
  auto frame = rpc::encode_frame(5, 0, test::put_cmd("key", "value"));
  rpc::FrameReader reader;
  EXPECT_FALSE(reader.truncated());
  // Feed all but the last byte: a peer closing now left a frame in flight.
  ASSERT_TRUE(reader.feed(std::span<const std::byte>(frame.data(), frame.size() - 1),
                          [](std::uint32_t, std::uint32_t, std::span<const std::byte>) {}));
  EXPECT_TRUE(reader.truncated());
  // The final byte completes the frame; nothing is left buffered.
  ASSERT_TRUE(reader.feed(std::span<const std::byte>(frame.data() + frame.size() - 1, 1),
                          [](std::uint32_t, std::uint32_t, std::span<const std::byte>) {}));
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(reader.error(), rpc::FrameReader::Error::None);
}

// ---------------------------------------------------------------------------
// Address parsing
// ---------------------------------------------------------------------------

TEST(ParseAddressTest, AcceptsHostPortForms) {
  auto full = rpc::parse_address("10.1.2.3:9100");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->host, "10.1.2.3");
  EXPECT_EQ(full->port, 9100);

  auto bare_port = rpc::parse_address("9100");
  ASSERT_TRUE(bare_port.has_value());
  EXPECT_EQ(bare_port->host, "127.0.0.1");
  EXPECT_EQ(bare_port->port, 9100);

  auto colon_port = rpc::parse_address(":9100");
  ASSERT_TRUE(colon_port.has_value());
  EXPECT_EQ(colon_port->host, "127.0.0.1");
  EXPECT_EQ(colon_port->port, 9100);
}

TEST(ParseAddressTest, RejectsMalformedInput) {
  EXPECT_FALSE(rpc::parse_address("").has_value());
  EXPECT_FALSE(rpc::parse_address("host:").has_value());
  EXPECT_FALSE(rpc::parse_address("127.0.0.1:0").has_value());
  EXPECT_FALSE(rpc::parse_address("127.0.0.1:70000").has_value());
  EXPECT_FALSE(rpc::parse_address("127.0.0.1:abc").has_value());
  EXPECT_FALSE(rpc::parse_address("not-an-ip:9100").has_value());
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

class CollectingEndpoint final : public sim::Endpoint {
 public:
  std::vector<std::pair<sim::NodeId, sim::PayloadPtr>> received;
  void deliver(sim::NodeId from, sim::PayloadPtr message) override {
    received.emplace_back(from, std::move(message));
  }
};

TEST(TcpTransportTest, DeliversBetweenLocalNodes) {
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  CollectingEndpoint a, b;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);
  transport.add_node(sim::NodeId{2}, sim::NodeKind::Replica, &b);
  EXPECT_GT(transport.port_of(sim::NodeId{1}), 0);

  auto request = std::make_shared<const msg::Request>(RequestId{ClientId{9}, OpNum{1}},
                                                      test::put_cmd("k", "v"));
  transport.send(sim::NodeId{1}, sim::NodeId{2}, request);
  loop.run_for(200 * kMillisecond);

  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, sim::NodeId{1});
  const auto* typed = dynamic_cast<const msg::Request*>(b.received[0].second.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->id.cid.value, 9u);
}

TEST(TcpTransportTest, ManyMessagesKeepOrderPerConnection) {
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  CollectingEndpoint a, b;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);
  transport.add_node(sim::NodeId{2}, sim::NodeKind::Replica, &b);

  for (std::uint64_t i = 1; i <= 500; ++i) {
    transport.send(sim::NodeId{1}, sim::NodeId{2},
                   std::make_shared<const msg::Reject>(RequestId{ClientId{1}, OpNum{i}}));
  }
  loop.run_for(300 * kMillisecond);

  ASSERT_EQ(b.received.size(), 500u);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const auto* typed = dynamic_cast<const msg::Reject*>(b.received[i].second.get());
    ASSERT_NE(typed, nullptr);
    EXPECT_EQ(typed->id.onr.value, i + 1);  // TCP preserves per-link order
  }
}

TEST(TcpTransportTest, SendToUnknownNodeIsDropped) {
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);
  transport.send(sim::NodeId{1}, sim::NodeId{99},
                 std::make_shared<const msg::Reject>(RequestId{}));
  EXPECT_EQ(transport.stats().dropped, 1u);
}

TEST(TcpTransportTest, RemovedNodeStopsReceiving) {
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  CollectingEndpoint a, b;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);
  transport.add_node(sim::NodeId{2}, sim::NodeKind::Replica, &b);
  transport.remove_node(sim::NodeId{2});
  transport.send(sim::NodeId{1}, sim::NodeId{2},
                 std::make_shared<const msg::Reject>(RequestId{}));
  loop.run_for(100 * kMillisecond);
  EXPECT_TRUE(b.received.empty());
}

namespace {

/// Blocking loopback connection to a transport listener (simulating a
/// buggy or hostile peer speaking raw TCP).
int connect_raw(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

}  // namespace

TEST(TcpTransportTest, OversizedInboundFrameCountsDecodeError) {
  rpc::EventLoop loop;
  rpc::TcpTransportConfig config;
  config.max_frame_bytes = 1024;
  rpc::TcpTransport transport(loop, config);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  int fd = connect_raw(transport.port_of(sim::NodeId{1}));
  // Header claiming a 1 MiB payload on a 1 KiB-bounded transport.
  auto frame = rpc::encode_frame(9, 0, std::vector<std::byte>(8));
  frame[2] = std::byte{0x10};  // length: 0x100008
  ASSERT_EQ(::write(fd, frame.data(), frame.size()), static_cast<ssize_t>(frame.size()));
  loop.run_for(200 * kMillisecond);

  EXPECT_EQ(transport.stats().decode_errors, 1u);
  EXPECT_TRUE(a.received.empty());
  ::close(fd);
}

TEST(TcpTransportTest, TruncatedInboundStreamCountsDecodeError) {
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  int fd = connect_raw(transport.port_of(sim::NodeId{1}));
  // A well-formed header followed by only part of the promised payload,
  // then a close: the frame in flight was truncated.
  auto frame = rpc::encode_frame(9, 0, std::vector<std::byte>(100));
  ASSERT_EQ(::write(fd, frame.data(), 40), 40);
  loop.run_for(100 * kMillisecond);
  ::close(fd);
  loop.run_for(200 * kMillisecond);

  EXPECT_EQ(transport.stats().decode_errors, 1u);
  EXPECT_TRUE(a.received.empty());
}

TEST(TcpTransportTest, CleanCloseBetweenFramesIsNotAnError) {
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  int fd = connect_raw(transport.port_of(sim::NodeId{1}));
  auto frame = rpc::encode_frame(
      9, 0, msg::Reject{RequestId{ClientId{1}, OpNum{1}}}.encode());
  ASSERT_EQ(::write(fd, frame.data(), frame.size()), static_cast<ssize_t>(frame.size()));
  loop.run_for(100 * kMillisecond);
  ::close(fd);
  loop.run_for(100 * kMillisecond);

  EXPECT_EQ(transport.stats().decode_errors, 0u);
  EXPECT_EQ(a.received.size(), 1u);
}

// ---------------------------------------------------------------------------
// Accept-path hardening (connection storms)
// ---------------------------------------------------------------------------

namespace {

/// True when the peer has closed (or reset) our end of `fd`.
bool peer_closed(int fd) {
  char byte = 0;
  ssize_t n = ::recv(fd, &byte, 1, MSG_DONTWAIT);
  if (n == 0) return true;                                   // clean EOF
  return n < 0 && errno != EAGAIN && errno != EWOULDBLOCK;   // reset
}

}  // namespace

TEST(TcpTransportTest, ConnectionLimitShedsExcessConnections) {
  rpc::EventLoop loop;
  rpc::TcpTransportConfig config;
  config.max_inbound_connections = 2;
  rpc::TcpTransport transport(loop, config);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  const std::uint16_t port = transport.port_of(sim::NodeId{1});
  std::vector<int> fds;
  for (int i = 0; i < 4; ++i) fds.push_back(connect_raw(port));
  loop.run_for(200 * kMillisecond);

  // Two kept, two shed at accept; the shed peers observe a closed socket
  // (the early-rejection signal, RejectReason::ConnectionLimit in
  // telemetry) instead of queueing behind an overloaded server.
  EXPECT_EQ(transport.stats().connection_limit_sheds, 2u);
  EXPECT_EQ(transport.memory().inbound_connections, 2u);
  int closed = 0;
  for (int fd : fds) closed += peer_closed(fd) ? 1 : 0;
  EXPECT_EQ(closed, 2);

  // The connections under the cap still deliver frames.
  auto frame = rpc::encode_frame(
      9, 0, msg::Reject{RequestId{ClientId{1}, OpNum{1}}}.encode());
  for (int fd : fds) {
    if (!peer_closed(fd)) {
      ASSERT_EQ(::write(fd, frame.data(), frame.size()),
                static_cast<ssize_t>(frame.size()));
      break;
    }
  }
  loop.run_for(100 * kMillisecond);
  EXPECT_EQ(a.received.size(), 1u);
  for (int fd : fds) ::close(fd);
}

TEST(TcpTransportTest, IdleTimeoutEvictsSilentConnections) {
  rpc::EventLoop loop;
  rpc::TcpTransportConfig config;
  config.idle_timeout = 80 * kMillisecond;
  config.sweep_interval = 20 * kMillisecond;
  rpc::TcpTransport transport(loop, config);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  int silent = connect_raw(transport.port_of(sim::NodeId{1}));
  int chatty = connect_raw(transport.port_of(sim::NodeId{1}));
  auto frame = rpc::encode_frame(
      9, 0, msg::Reject{RequestId{ClientId{1}, OpNum{1}}}.encode());
  // The chatty peer completes a frame every ~40ms and must survive; the
  // silent one sends nothing and must be evicted.
  for (int round = 0; round < 6; ++round) {
    ASSERT_EQ(::write(chatty, frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    loop.run_for(40 * kMillisecond);
  }

  EXPECT_EQ(transport.stats().idle_evictions, 1u);
  EXPECT_TRUE(peer_closed(silent));
  EXPECT_FALSE(peer_closed(chatty));
  EXPECT_EQ(a.received.size(), 6u);
  ::close(silent);
  ::close(chatty);
}

TEST(TcpTransportTest, HalfOpenTimeoutEvictsPartialFrame) {
  rpc::EventLoop loop;
  rpc::TcpTransportConfig config;
  config.half_open_timeout = 80 * kMillisecond;
  config.sweep_interval = 20 * kMillisecond;
  rpc::TcpTransport transport(loop, config);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  // The loris peer starts a frame and never finishes it; the quiet peer
  // completed its frame and sits idle between frames — with only
  // half_open_timeout set (no idle_timeout) it must NOT be evicted.
  int loris = connect_raw(transport.port_of(sim::NodeId{1}));
  int quiet = connect_raw(transport.port_of(sim::NodeId{1}));
  auto frame = rpc::encode_frame(
      9, 0, msg::Reject{RequestId{ClientId{1}, OpNum{1}}}.encode());
  ASSERT_EQ(::write(quiet, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  ASSERT_EQ(::write(loris, frame.data(), frame.size() / 2),
            static_cast<ssize_t>(frame.size() / 2));
  loop.run_for(300 * kMillisecond);

  EXPECT_EQ(transport.stats().half_open_evictions, 1u);
  EXPECT_EQ(transport.stats().idle_evictions, 0u);
  EXPECT_TRUE(peer_closed(loris));
  EXPECT_FALSE(peer_closed(quiet));
  EXPECT_EQ(a.received.size(), 1u);
  ::close(loris);
  ::close(quiet);
}

TEST(TcpTransportTest, AcceptBurstDrainsFloodWithoutStarvingTimers) {
  rpc::EventLoop loop;
  rpc::TcpTransportConfig config;
  config.accept_burst = 8;  // tiny burst: a 100-connection flood needs
                            // many deferred continuations to drain
  rpc::TcpTransport transport(loop, config);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  const std::uint16_t port = transport.port_of(sim::NodeId{1});
  std::vector<int> fds;
  for (int i = 0; i < 100; ++i) fds.push_back(connect_raw(port));
  bool timer_fired = false;
  loop.schedule_after(50 * kMillisecond, [&] { timer_fired = true; });
  loop.run_for(300 * kMillisecond);

  // Every connection in the flood gets accepted (in bursts of 8), and
  // the accept loop never monopolized an iteration: the timer fired.
  EXPECT_EQ(transport.stats().accepted_connections, 100u);
  EXPECT_EQ(transport.memory().inbound_connections, 100u);
  EXPECT_TRUE(timer_fired);
  for (int fd : fds) ::close(fd);
}

TEST(TcpTransportTest, RepliesRouteOverTheInboundConnection) {
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  // A listener-less client (sender-port 0, like the storm driver) sends a
  // REQUEST; the transport must route the reply back over the same
  // inbound connection instead of dialing the advertised port.
  int fd = connect_raw(transport.port_of(sim::NodeId{1}));
  const std::uint32_t client_node = 1'000'777;
  auto request = rpc::encode_frame(
      client_node, 0,
      msg::Request{RequestId{ClientId{777}, OpNum{1}}, test::put_cmd("k", "v")}.encode());
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  loop.run_for(100 * kMillisecond);
  ASSERT_EQ(a.received.size(), 1u);

  transport.send(sim::NodeId{1}, sim::NodeId{client_node},
                 std::make_shared<const msg::Reject>(RequestId{ClientId{777}, OpNum{1}}));
  loop.run_for(100 * kMillisecond);

  rpc::FrameReader reader;
  char buf[4096];
  ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
  ASSERT_GT(n, 0);
  std::size_t frames = 0;
  reader.feed(std::as_bytes(std::span(buf, static_cast<std::size_t>(n))),
              [&](std::uint32_t sender, std::uint32_t route, std::span<const std::byte> payload) {
                ++frames;
                EXPECT_EQ(sender, 1u);
                // An answer over an accepted connection names its node.
                EXPECT_EQ(route, client_node);
                auto message = msg::decode(payload);
                ASSERT_EQ(message->type(), msg::Type::Reject);
                EXPECT_EQ(static_cast<const msg::Reject&>(*message).id.cid.value, 777u);
              });
  EXPECT_EQ(frames, 1u);
  EXPECT_EQ(transport.stats().dropped, 0u);
  ::close(fd);
}

namespace {

/// Answers every delivered message with a REJECT back to its sender.
class AnsweringEndpoint final : public sim::Endpoint {
 public:
  AnsweringEndpoint(rpc::TcpTransport& transport, sim::NodeId self)
      : transport_(transport), self_(self) {}
  std::size_t delivered = 0;
  void deliver(sim::NodeId from, sim::PayloadPtr) override {
    ++delivered;
    transport_.send(self_, from, std::make_shared<const msg::Reject>(RequestId{}));
  }

 private:
  rpc::TcpTransport& transport_;
  sim::NodeId self_;
};

}  // namespace

TEST(TcpTransportTest, ClientNodesShareOneConnectionPerReplica) {
  rpc::EventLoop loop;
  rpc::TcpTransport replicas(loop);
  rpc::TcpTransport clients(loop);
  const sim::NodeId replica_node{1};
  CollectingEndpoint replica;
  replicas.add_node(replica_node, sim::NodeKind::Replica, &replica);
  clients.set_remote(replica_node, replicas.port_of(replica_node));

  constexpr std::uint32_t kClients = 16;
  std::vector<CollectingEndpoint> endpoints(kClients);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    clients.add_node(sim::NodeId{1'000'000 + c}, sim::NodeKind::Client, &endpoints[c]);
    EXPECT_EQ(clients.port_of(sim::NodeId{1'000'000 + c}), 0);  // no listener
  }
  for (std::uint32_t c = 0; c < kClients; ++c) {
    clients.send(sim::NodeId{1'000'000 + c}, replica_node,
                 std::make_shared<const msg::Request>(RequestId{ClientId{c}, OpNum{1}},
                                                      test::put_cmd("k", "v")));
  }
  loop.run_for(100 * kMillisecond);
  ASSERT_EQ(replica.received.size(), kClients);
  // One connection carries every client node's frames.
  EXPECT_EQ(clients.memory().outbound_connections, 1u);
  EXPECT_EQ(replicas.stats().accepted_connections, 1u);

  // Answers produced in one loop iteration leave together over that
  // connection, each addressed to its own node.
  const std::uint64_t writes_before = replicas.stats().write_syscalls;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    replicas.send(replica_node, sim::NodeId{1'000'000 + c},
                  std::make_shared<const msg::Reject>(RequestId{ClientId{c}, OpNum{1}}));
  }
  loop.run_for(100 * kMillisecond);
  EXPECT_LT(replicas.stats().write_syscalls - writes_before, kClients);
  EXPECT_EQ(replicas.stats().dropped, 0u);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(endpoints[c].received.size(), 1u) << "client " << c;
    EXPECT_EQ(endpoints[c].received[0].first, replica_node);
    const auto* reject = dynamic_cast<const msg::Reject*>(endpoints[c].received[0].second.get());
    ASSERT_NE(reject, nullptr);
    EXPECT_EQ(reject->id.cid.value, c);
  }
  // Nobody dialed back.
  EXPECT_EQ(replicas.memory().outbound_connections, 0u);
  EXPECT_EQ(clients.stats().accepted_connections, 0u);
}

TEST(TcpTransportTest, ClientBesideTheReplicaGetsItsAnswers) {
  // Client and replica on one transport: the client has no listener, so
  // the replica must learn a route for a local sender too.
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  const sim::NodeId replica_node{1};
  const sim::NodeId client_node{1'000'000};
  AnsweringEndpoint replica(transport, replica_node);
  CollectingEndpoint client;
  transport.add_node(replica_node, sim::NodeKind::Replica, &replica);
  transport.add_node(client_node, sim::NodeKind::Client, &client);

  transport.send(client_node, replica_node,
                 std::make_shared<const msg::Request>(RequestId{ClientId{0}, OpNum{1}},
                                                      test::put_cmd("k", "v")));
  loop.run_for(200 * kMillisecond);
  EXPECT_EQ(replica.delivered, 1u);
  ASSERT_EQ(client.received.size(), 1u);
  EXPECT_EQ(client.received[0].first, replica_node);
  EXPECT_EQ(transport.stats().dropped, 0u);
}

TEST(TcpTransportTest, FramesQueuedOnARefusedConnectionCountAsDropped) {
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  // A port nothing listens on: bound, then closed without listen().
  int probe = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(probe);
  transport.set_remote(sim::NodeId{2}, ntohs(addr.sin_port));

  for (std::uint64_t i = 1; i <= 5; ++i) {
    transport.send(sim::NodeId{1}, sim::NodeId{2},
                   std::make_shared<const msg::Reject>(RequestId{ClientId{1}, OpNum{i}}));
  }
  loop.run_for(100 * kMillisecond);

  // The frames queued behind the refused handshake die with it.
  EXPECT_EQ(transport.stats().messages_sent, 5u);
  EXPECT_EQ(transport.stats().dropped, 5u);
  EXPECT_EQ(transport.stats().write_syscalls, 0u);
  EXPECT_EQ(transport.memory().outbound_connections, 0u);
}

TEST(FramingTest, DecodeBufferIsReusedAcrossFrames) {
  rpc::FrameReader reader;
  const std::size_t warm = reader.capacity();
  ASSERT_GT(warm, 0u);

  std::size_t delivered = 0;
  auto count = [&](std::uint32_t, std::uint32_t, std::span<const std::byte>) { ++delivered; };

  // Steady state: frames smaller than the warm buffer, each split across
  // two reads to exercise the partial-frame path. The grow-only buffer
  // must never reallocate — zero allocation per frame is the contract the
  // transport's recv loop relies on.
  auto frame = rpc::encode_frame(1, 0, std::vector<std::byte>(1000));
  const std::size_t half = frame.size() / 2;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(reader.feed(std::span<const std::byte>(frame).first(half), count));
    ASSERT_TRUE(reader.feed(std::span<const std::byte>(frame).subspan(half), count));
    EXPECT_EQ(reader.capacity(), warm) << "iteration " << i;
  }
  EXPECT_EQ(delivered, 200u);
  EXPECT_EQ(reader.buffered(), 0u);

  // A frame larger than anything seen grows the buffer once; repeats of
  // the same size reuse the grown arena.
  auto big = rpc::encode_frame(1, 0, std::vector<std::byte>(3 * warm));
  ASSERT_TRUE(reader.feed(big, count));
  const std::size_t grown = reader.capacity();
  EXPECT_GT(grown, warm);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(reader.feed(big, count));
  EXPECT_EQ(reader.capacity(), grown);
  EXPECT_EQ(delivered, 206u);
}

// ---------------------------------------------------------------------------
// PendingWrites: the per-connection queue behind sendmsg coalescing
// ---------------------------------------------------------------------------

namespace {

std::vector<std::byte> frame_of(std::size_t size, int fill) {
  return std::vector<std::byte>(size, std::byte(fill));
}

}  // namespace

TEST(TcpTransportTest, PendingWritesResumeExactlyAfterPartialWrite) {
  rpc::PendingWrites out;
  out.push(frame_of(10, 1));
  out.push(frame_of(20, 2));
  out.push(frame_of(30, 3));
  EXPECT_EQ(out.total_bytes, 60u);

  iovec iov[8];
  ASSERT_EQ(out.fill_iovec(iov, 8), 3u);
  EXPECT_EQ(iov[0].iov_len, 10u);
  EXPECT_EQ(iov[1].iov_len, 20u);
  EXPECT_EQ(iov[2].iov_len, 30u);

  // sendmsg moved 25 bytes before EAGAIN: frame 0 fully, frame 1 to byte
  // 15. The next fill must start mid-frame, not re-send written bytes.
  out.consume(25);
  EXPECT_EQ(out.total_bytes, 35u);
  ASSERT_EQ(out.fill_iovec(iov, 8), 2u);
  EXPECT_EQ(iov[0].iov_base, out.frames.front().data() + 15);
  EXPECT_EQ(iov[0].iov_len, 5u);
  EXPECT_EQ(iov[1].iov_len, 30u);

  // Exactly finishing the partial frame resets the offset.
  out.consume(5);
  EXPECT_EQ(out.front_offset, 0u);
  ASSERT_EQ(out.fill_iovec(iov, 8), 1u);
  EXPECT_EQ(iov[0].iov_len, 30u);

  out.consume(30);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.total_bytes, 0u);
}

TEST(TcpTransportTest, PendingWritesCapIovecEntries) {
  rpc::PendingWrites out;
  for (int i = 0; i < 5; ++i) out.push(frame_of(8, i));
  iovec iov[5];
  EXPECT_EQ(out.fill_iovec(iov, 2), 2u);  // kMaxFlushIov-style cap
  EXPECT_EQ(out.fill_iovec(iov, 5), 5u);
}

TEST(TcpTransportTest, PendingWriteBoundShedsFramesAndCounts) {
  rpc::EventLoop loop;
  rpc::TcpTransportConfig config;
  config.max_pending_write_bytes = 600;
  rpc::TcpTransport transport(loop, config);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  // A listener that completes handshakes but is never served by an event
  // loop on our side: the loop never runs, so nothing is flushed and every
  // send stays in the connection's pending-write queue.
  int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  transport.set_remote(sim::NodeId{2}, ntohs(addr.sin_port));

  const std::string value(200, 'x');
  for (std::uint64_t i = 1; i <= 10; ++i) {
    transport.send(sim::NodeId{1}, sim::NodeId{2},
                   std::make_shared<const msg::Request>(RequestId{ClientId{7}, OpNum{i}},
                                                        test::put_cmd("key", value)));
  }

  const rpc::TransportStats& stats = transport.stats();
  // ~220-byte frames against a 600-byte bound: the first few queue, the
  // rest are shed (fair loss) instead of buffering without bound.
  EXPECT_GT(stats.send_queue_overflows, 0u);
  EXPECT_EQ(stats.send_queue_overflows, stats.dropped);
  EXPECT_EQ(stats.messages_sent + stats.send_queue_overflows, 10u);
  EXPECT_LE(stats.bytes_sent, config.max_pending_write_bytes);
  ::close(listener);
}

// ---------------------------------------------------------------------------
// The full IDEM protocol over real TCP
// ---------------------------------------------------------------------------

TEST(RealtimeIdem, PutGetOverRealSockets) {
  rpc::EventLoop loop(3);
  rpc::TcpTransport transport(loop);

  core::IdemConfig config;
  config.n = 3;
  config.f = 1;
  config.reject_threshold = 50;
  // Keep simulated CPU costs off the real-time path.
  config.costs.per_message = 0;
  config.costs.ns_per_byte = 0;
  config.costs.send_per_message = 0;
  config.costs.send_ns_per_byte = 0;
  config.costs.jitter = 0;

  std::vector<std::unique_ptr<core::IdemReplica>> replicas;
  for (std::uint32_t i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<core::IdemReplica>(
        loop, transport, ReplicaId{i}, config,
        std::make_unique<app::KvStore>(app::KvStore::Costs{0, 0, 0}),
        core::make_default_acceptance(config, 1)));
  }
  core::IdemClient client(loop, transport, ClientId{0}, {});

  std::optional<consensus::Outcome> put;
  client.invoke(test::put_cmd("greeting", "over-tcp"),
                [&](const consensus::Outcome& o) {
                  put = o;
                  loop.stop();
                });
  loop.run_for(5 * kSecond);
  ASSERT_TRUE(put.has_value());
  EXPECT_EQ(put->kind, consensus::Outcome::Kind::Reply);

  std::optional<consensus::Outcome> get;
  client.invoke(test::get_cmd("greeting"), [&](const consensus::Outcome& o) {
    get = o;
    loop.stop();
  });
  loop.run_for(5 * kSecond);
  ASSERT_TRUE(get.has_value());
  ASSERT_EQ(get->kind, consensus::Outcome::Kind::Reply);
  EXPECT_EQ(app::KvResult::decode(get->result).values.at(0), "over-tcp");

  // Every replica executed both operations.
  for (const auto& replica : replicas) {
    EXPECT_EQ(replica->last_executed(ClientId{0}), OpNum{2});
  }
}

TEST(RealtimeIdem, RejectionOverRealSockets) {
  rpc::EventLoop loop(4);
  rpc::TcpTransport transport(loop);

  core::IdemConfig config;
  config.n = 3;
  config.f = 1;
  config.reject_threshold = 0;  // reject everything
  config.costs = consensus::CostModel{0, 0, 0, 0, 0, 0, 1};

  std::vector<std::unique_ptr<core::IdemReplica>> replicas;
  for (std::uint32_t i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<core::IdemReplica>(
        loop, transport, ReplicaId{i}, config,
        std::make_unique<app::KvStore>(app::KvStore::Costs{0, 0, 0}),
        core::make_default_acceptance(config, 1)));
  }
  core::IdemClient client(loop, transport, ClientId{0}, {});

  std::optional<consensus::Outcome> outcome;
  client.invoke(test::put_cmd("k", "v"), [&](const consensus::Outcome& o) {
    outcome = o;
    loop.stop();
  });
  loop.run_for(5 * kSecond);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Rejected);
  EXPECT_EQ(outcome->rejects_seen, 3u);
}

}  // namespace
}  // namespace idem
