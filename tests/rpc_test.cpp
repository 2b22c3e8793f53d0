// Tests for the real-time runtime and TCP transport: event-loop timers,
// frame reassembly, socket round trips, and — the headline — the complete
// IDEM protocol running over real kernel TCP instead of the simulator.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <linux/tcp.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

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

// The wait policy: poll for kSpinWindow after activity, sleep otherwise.
// Bounds are loose (sanitizer builds run these under ctest -j); each still
// fails a loop that never spins or never stops.

Duration thread_cpu_time() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<Duration>(ts.tv_sec) * kSecond + ts.tv_nsec;
}

TEST(EventLoopTest, IdleLoopSleepsWithoutSpinning) {
  rpc::EventLoop loop;
  const Duration cpu_before = thread_cpu_time();
  loop.run_for(100 * kMillisecond);
  EXPECT_EQ(loop.stats().spin_ns, 0u);
  EXPECT_GE(loop.stats().sleeps, 1u);
  EXPECT_LT(thread_cpu_time() - cpu_before, 10 * kMillisecond);
}

TEST(EventLoopTest, SpinEndsWhenTheWindowCloses) {
  rpc::EventLoop loop;
  std::optional<std::uint64_t> sleeps_before_task;
  loop.post([&] { sleeps_before_task = loop.stats().sleeps; });
  loop.run_for(50 * kMillisecond);
  ASSERT_TRUE(sleeps_before_task.has_value());
  const rpc::LoopStats& stats = loop.stats();
  EXPECT_GT(stats.spin_ns, 0u);
  EXPECT_GT(stats.sleeps, *sleeps_before_task);  // slept after the task
  // One window is 0.1 ms; a loop that kept polling would spin ~50 ms.
  EXPECT_LT(stats.spin_ns, static_cast<std::uint64_t>(25 * kMillisecond));
  EXPECT_GT(stats.busy_ns, 0u);
}

TEST(EventLoopTest, SpinningWithNothingToDoAccruesNoBusyTime) {
  // A posted task that works 10 µs is busy time. The first run ends right
  // after it, inside its spin window; the second spins the window out with
  // nothing to do and then sleeps, and must add nothing to busy_ns. A
  // trial whose second run started after the window closed (the thread
  // was preempted) did not spin and is repeated.
  rpc::EventLoop loop;
  bool spun = false;
  for (int trial = 0; trial < 20 && !spun; ++trial) {
    const rpc::LoopStats before = loop.stats();
    bool ran = false;
    loop.post([&] {
      const Time begin = loop.now();
      while (loop.now() - begin < 10 * kMicrosecond) {
      }
      ran = true;
    });
    do {
      loop.run_for(5 * kMicrosecond);
    } while (!ran);
    const rpc::LoopStats after_task = loop.stats();
    EXPECT_GE(after_task.busy_ns - before.busy_ns, static_cast<std::uint64_t>(10 * kMicrosecond));

    loop.run_for(2 * kMillisecond);
    EXPECT_EQ(loop.stats().busy_ns, after_task.busy_ns);
    spun = loop.stats().spin_ns > after_task.spin_ns;
  }
  EXPECT_TRUE(spun);
}

TEST(EventLoopTest, TimerDueInsideTheSpinWindowSkipsTheMillisecondWait) {
  // A blocking wait rounds up to whole milliseconds: without the spin a
  // 50 µs timer fires about 1 ms late. The best of five trials ignores a
  // preempted one.
  rpc::EventLoop loop;
  Duration best = kSecond;
  for (int trial = 0; trial < 5; ++trial) {
    Time due = 0;
    Time fired = 0;
    loop.post([&] {
      due = loop.now() + 50 * kMicrosecond;
      loop.schedule_at(due, [&] {
        fired = loop.now();
        loop.stop();
      });
    });
    loop.run_for(kSecond);
    ASSERT_GT(fired, 0);
    best = std::min(best, fired - due);
  }
  EXPECT_LT(best, 500 * kMicrosecond);
}

TEST(EventLoopTest, CrossThreadPostReachesASpinningLoop) {
  // Ping-pong with a foreign thread: each post arrives right after the
  // loop ran the previous task, inside its spin window, so most are
  // picked up by a spin poll rather than by waking from a sleep.
  rpc::EventLoop loop;
  constexpr int kRounds = 1000;
  std::atomic<int> ran{0};
  std::thread poster([&] {
    for (int i = 0; i < kRounds; ++i) {
      loop.post([&ran] { ran.fetch_add(1, std::memory_order_release); });
      while (ran.load(std::memory_order_acquire) <= i) std::this_thread::yield();
    }
    loop.stop();
  });
  loop.run_for(60 * kSecond);
  poster.join();
  EXPECT_EQ(ran.load(), kRounds);
  EXPECT_GT(loop.stats().spin_ns, 0u);
  EXPECT_LT(loop.stats().sleeps, static_cast<std::uint64_t>(kRounds / 2));
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

TEST(FramingTest, BuildFrameMatchesEncodeFrameAndRecyclesItsBuffer) {
  const msg::Request request(RequestId{ClientId{3}, OpNum{9}}, test::put_cmd("key", "value"));
  auto encode = [&request](ByteWriter& w) { request.encode_to(w); };
  std::vector<std::byte> frame;
  rpc::build_frame(frame, 42, 9999, encode);
  EXPECT_EQ(frame, rpc::encode_frame(42, 9999, request.encode()));

  // The next build reuses the buffer; only the route word differs between
  // two destinations of one message.
  const std::byte* storage = frame.data();
  rpc::build_frame(frame, 42, 7, encode);
  EXPECT_EQ(frame.data(), storage);
  rpc::set_frame_route(frame, 9999);
  EXPECT_EQ(frame, rpc::encode_frame(42, 9999, request.encode()));
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

TEST(TcpTransportTest, IdleTimeoutSparesAConnectionBusyOnlyInOurDirection) {
  rpc::EventLoop loop;
  rpc::TcpTransportConfig config;
  config.idle_timeout = 80 * kMillisecond;
  rpc::TcpTransport transport(loop, config);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  // The peer sends one frame and then only listens, as a follower does
  // when the leader it dialed keeps proposing through a lull on its side.
  // The connection is in use all along and must survive the timeout.
  int fd = connect_raw(transport.port_of(sim::NodeId{1}));
  auto frame = rpc::encode_frame(
      9, 0, msg::Reject{RequestId{ClientId{1}, OpNum{1}}}.encode());
  ASSERT_EQ(::write(fd, frame.data(), frame.size()), static_cast<ssize_t>(frame.size()));
  loop.run_for(20 * kMillisecond);
  ASSERT_EQ(a.received.size(), 1u);
  constexpr std::uint64_t kAnswers = 6;
  for (std::uint64_t i = 1; i <= kAnswers; ++i) {
    transport.send(sim::NodeId{1}, sim::NodeId{9},
                   std::make_shared<const msg::Reject>(RequestId{ClientId{1}, OpNum{i}}));
    loop.run_for(40 * kMillisecond);
  }

  EXPECT_EQ(transport.stats().idle_evictions, 0u);
  EXPECT_EQ(transport.stats().dropped, 0u);
  rpc::FrameReader reader;
  std::uint64_t answers = 0;
  char buf[4096];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT)) > 0;) {
    reader.feed(std::as_bytes(std::span(buf, static_cast<std::size_t>(n))),
                [&](std::uint32_t, std::uint32_t, std::span<const std::byte>) { ++answers; });
  }
  EXPECT_EQ(answers, kAnswers);
  EXPECT_FALSE(peer_closed(fd));
  ::close(fd);
}

TEST(TcpTransportTest, HalfOpenTimeoutEvictsPartialFrame) {
  rpc::EventLoop loop;
  rpc::TcpTransportConfig config;
  config.half_open_timeout = 80 * kMillisecond;
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

/// Answers every delivered message with a REJECT back to its sender, from
/// inside the delivery (while `answering`).
class AnsweringEndpoint final : public sim::Endpoint {
 public:
  AnsweringEndpoint(rpc::TcpTransport& transport, sim::NodeId self)
      : transport_(transport), self_(self) {}
  std::size_t delivered = 0;
  bool answering = true;
  void deliver(sim::NodeId from, sim::PayloadPtr) override {
    ++delivered;
    if (answering) transport_.send(self_, from, std::make_shared<const msg::Reject>(RequestId{}));
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

namespace {

std::shared_ptr<const msg::Reject> reject_of(std::uint64_t onr) {
  return std::make_shared<const msg::Reject>(RequestId{ClientId{1}, OpNum{onr}});
}

/// Checks that `received` holds REJECTs numbered 1, 2, ... in order.
void expect_rejects_in_order(const CollectingEndpoint& endpoint, std::uint64_t count) {
  ASSERT_EQ(endpoint.received.size(), count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto* reject = dynamic_cast<const msg::Reject*>(endpoint.received[i].second.get());
    ASSERT_NE(reject, nullptr);
    EXPECT_EQ(reject->id.onr.value, i + 1) << "frame " << i;
  }
}

/// The fd in this process connected to loopback `port`: the dialed end of
/// a transport's connection to the listener on that port (-1 if none).
int dialed_fd_to(std::uint16_t port) {
  for (int fd = 0; fd < 4096; ++fd) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len) == 0 &&
        peer.sin_family == AF_INET && ntohs(peer.sin_port) == port) {
      return fd;
    }
  }
  return -1;
}

/// Data segments a socket has received and sent, as the kernel counts them.
struct DataSegments {
  std::uint32_t in = 0;
  std::uint32_t out = 0;
};

DataSegments data_segments(int fd) {
  tcp_info info{};
  socklen_t len = sizeof(info);
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_INFO, &info, &len), 0);
  return DataSegments{info.tcpi_data_segs_in, info.tcpi_data_segs_out};
}

}  // namespace

TEST(TcpTransportTest, ReplicaPairSharesOneConnection) {
  rpc::EventLoop loop;
  rpc::TcpTransport first(loop);
  rpc::TcpTransport second(loop);
  const sim::NodeId a{1};
  const sim::NodeId b{2};
  CollectingEndpoint at_a, at_b;
  first.add_node(a, sim::NodeKind::Replica, &at_a);
  second.add_node(b, sim::NodeKind::Replica, &at_b);
  first.set_remote(b, second.port_of(b));
  second.set_remote(a, first.port_of(a));

  // a dials b; b's answers ride back over that connection instead of a
  // second one b would dial.
  first.send(a, b, reject_of(1));
  loop.run_for(100 * kMillisecond);
  ASSERT_EQ(at_b.received.size(), 1u);
  for (std::uint64_t i = 1; i <= 50; ++i) {
    second.send(b, a, reject_of(i));
    first.send(a, b, reject_of(i + 1));
  }
  loop.run_for(200 * kMillisecond);

  expect_rejects_in_order(at_a, 50);
  expect_rejects_in_order(at_b, 51);
  const rpc::TransportMemory m1 = first.memory();
  const rpc::TransportMemory m2 = second.memory();
  EXPECT_EQ(m1.outbound_connections + m2.outbound_connections, 1u);
  EXPECT_EQ(m1.inbound_connections + m2.inbound_connections, 1u);
  EXPECT_EQ(first.stats().dropped + second.stats().dropped, 0u);
}

TEST(TcpTransportTest, WhenBothSidesDialedTheLowerIdsConnectionCarriesBothWays) {
  rpc::EventLoop loop;
  rpc::TcpTransport low(loop);
  rpc::TcpTransport high(loop);
  const sim::NodeId low_node{1};
  const sim::NodeId high_node{2};
  CollectingEndpoint at_low, at_high;
  low.add_node(low_node, sim::NodeKind::Replica, &at_low);
  high.add_node(high_node, sim::NodeKind::Replica, &at_high);
  low.set_remote(high_node, high.port_of(high_node));
  high.set_remote(low_node, low.port_of(low_node));

  // Both send before either heard from the other: both dial.
  low.send(low_node, high_node, reject_of(1));
  high.send(high_node, low_node, reject_of(1));
  loop.run_for(100 * kMillisecond);
  ASSERT_EQ(at_low.received.size(), 1u);
  ASSERT_EQ(at_high.received.size(), 1u);
  ASSERT_EQ(low.memory().outbound_connections, 1u);
  ASSERT_EQ(high.memory().outbound_connections, 1u);
  const int lows = dialed_fd_to(high.port_of(high_node));
  ASSERT_GE(lows, 0);
  const DataSegments before = data_segments(lows);

  constexpr std::uint64_t kFrames = 200;
  for (std::uint64_t i = 2; i <= kFrames; ++i) {
    low.send(low_node, high_node, reject_of(i));
    high.send(high_node, low_node, reject_of(i));
    if (i % 50 == 0) loop.run_for(5 * kMillisecond);
  }
  loop.run_for(200 * kMillisecond);

  // Every frame arrived, in order per direction...
  expect_rejects_in_order(at_low, kFrames);
  expect_rejects_in_order(at_high, kFrames);
  // ...over the connection the lower id dialed, both ways. The higher id
  // closed its own before its next frame, and the lower id dropped the
  // accepted end.
  const DataSegments after = data_segments(lows);
  EXPECT_GT(after.out, before.out);
  EXPECT_GT(after.in, before.in);
  EXPECT_EQ(low.memory().outbound_connections, 1u);
  EXPECT_EQ(low.memory().inbound_connections, 0u);
  EXPECT_EQ(high.memory().outbound_connections, 0u);
  EXPECT_EQ(high.memory().inbound_connections, 1u);
  EXPECT_EQ(low.stats().dropped + high.stats().dropped, 0u);
  EXPECT_EQ(low.stats().decode_errors + high.stats().decode_errors, 0u);
}

namespace {

/// A loopback listener for a raw peer a transport dials; sets `port`.
int listen_raw(std::uint16_t& port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::listen(fd, 4), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

TEST(TcpTransportTest, AnswerFromInsideTheLosingConnectionsReadRetiresItAfterwards) {
  // The higher id answers a frame that arrived on the connection it dialed
  // while it also holds a route over the lower id's connection: the answer
  // takes the route, and the dialed connection lost. It is still being
  // read, so it may only be closed once that read is over.
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  const sim::NodeId low{1};  // played by raw sockets
  const sim::NodeId high{2};
  AnsweringEndpoint at_high(transport, high);
  transport.add_node(high, sim::NodeKind::Replica, &at_high);
  std::uint16_t low_port = 0;
  const int listener = listen_raw(low_port);
  transport.set_remote(low, low_port);

  // high dials low.
  transport.send(high, low, reject_of(1));
  loop.run_for(50 * kMillisecond);
  const int dialed = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(dialed, 0);
  char buf[4096];
  ASSERT_GT(::recv(dialed, buf, sizeof buf, 0), 0);  // the REJECT
  ASSERT_EQ(transport.memory().outbound_connections, 1u);

  // low dials high too, which teaches high a route back to low.
  at_high.answering = false;
  const int accepted = connect_raw(transport.port_of(high));
  auto hello = rpc::encode_frame(low.value, low_port, reject_of(2)->encode());
  ASSERT_EQ(::write(accepted, hello.data(), hello.size()), static_cast<ssize_t>(hello.size()));
  loop.run_for(50 * kMillisecond);
  ASSERT_EQ(at_high.delivered, 1u);

  // A frame on high's dialed connection, answered during its delivery.
  at_high.answering = true;
  auto late = rpc::encode_frame(low.value, high.value, reject_of(3)->encode());
  ASSERT_EQ(::write(dialed, late.data(), late.size()), static_cast<ssize_t>(late.size()));
  loop.run_for(50 * kMillisecond);
  ASSERT_EQ(at_high.delivered, 2u);

  // The answer came over the route, addressed to low...
  rpc::FrameReader reader;
  std::size_t answers = 0;
  ssize_t n = ::recv(accepted, buf, sizeof buf, MSG_DONTWAIT);
  ASSERT_GT(n, 0);
  reader.feed(std::as_bytes(std::span(buf, static_cast<std::size_t>(n))),
              [&](std::uint32_t sender, std::uint32_t route, std::span<const std::byte>) {
                ++answers;
                EXPECT_EQ(sender, high.value);
                EXPECT_EQ(route, low.value);
              });
  EXPECT_EQ(answers, 1u);
  // ...and the losing connection was retired once its read was over.
  EXPECT_TRUE(peer_closed(dialed));
  EXPECT_EQ(transport.memory().outbound_connections, 0u);
  EXPECT_EQ(transport.memory().inbound_connections, 1u);
  EXPECT_EQ(transport.stats().dropped, 0u);
  EXPECT_EQ(transport.stats().decode_errors, 0u);
  ::close(dialed);
  ::close(accepted);
  ::close(listener);
}

TEST(TcpTransportTest, BurstThatFitsOneRecvCostsOneRead) {
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  int fd = connect_raw(transport.port_of(sim::NodeId{1}));
  std::vector<std::byte> burst;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    auto frame = rpc::encode_frame(9, 0, msg::Reject{RequestId{ClientId{1}, OpNum{i}}}.encode());
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_EQ(::write(fd, burst.data(), burst.size()), static_cast<ssize_t>(burst.size()));
  loop.run_for(100 * kMillisecond);

  // The recv that returned the burst left its span unfilled: the socket
  // was empty, and asking again would only have returned EAGAIN.
  expect_rejects_in_order(a, 10);
  EXPECT_EQ(transport.stats().read_syscalls, 1u);
  ::close(fd);
}

namespace {

/// A REJECT that counts how often it is encoded.
struct CountedReject final : msg::Message {
  explicit CountedReject(RequestId id) : reject(id) {}
  msg::Type type() const override { return msg::Type::Reject; }
  std::string kind() const override { return "REJECT"; }
  void encode_body(ByteWriter& w) const override {
    ++encodes;
    reject.encode_body(w);
  }
  msg::Reject reject;
  mutable std::size_t encodes = 0;
};

}  // namespace

TEST(TcpTransportTest, MulticastToAnswerRoutesIsEncodedOnce) {
  rpc::EventLoop loop;
  rpc::TcpTransport replicas(loop);
  rpc::TcpTransport clients(loop);
  const sim::NodeId replica_node{1};
  CollectingEndpoint replica;
  replicas.add_node(replica_node, sim::NodeKind::Replica, &replica);
  clients.set_remote(replica_node, replicas.port_of(replica_node));
  const sim::NodeId c1{1'000'000};
  const sim::NodeId c2{1'000'001};
  CollectingEndpoint at_c1, at_c2;
  clients.add_node(c1, sim::NodeKind::Client, &at_c1);
  clients.add_node(c2, sim::NodeKind::Client, &at_c2);
  for (sim::NodeId client : {c1, c2}) {
    clients.send(client, replica_node,
                 std::make_shared<const msg::Request>(RequestId{ClientId{client.value}, OpNum{1}},
                                                      test::put_cmd("k", "v")));
  }
  loop.run_for(100 * kMillisecond);
  ASSERT_EQ(replica.received.size(), 2u);

  // One message to two nodes answered over routes, each frame carrying its
  // own destination id: encoded once, route word rewritten per node.
  auto message = std::make_shared<const CountedReject>(RequestId{ClientId{5}, OpNum{1}});
  replicas.send(replica_node, c1, message);
  replicas.send(replica_node, c2, message);
  loop.run_for(100 * kMillisecond);

  EXPECT_EQ(message->encodes, 1u);
  for (const CollectingEndpoint* client : {&at_c1, &at_c2}) {
    ASSERT_EQ(client->received.size(), 1u);
    const auto* reject = dynamic_cast<const msg::Reject*>(client->received[0].second.get());
    ASSERT_NE(reject, nullptr);
    EXPECT_EQ(reject->id.cid.value, 5u);
  }
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
// PendingWrites: the per-connection buffer behind write coalescing
// ---------------------------------------------------------------------------

namespace {

/// A frame whose payload is `size` copies of `fill`.
std::vector<std::byte> frame_of(std::size_t size, int fill) {
  return rpc::encode_frame(1, 0, std::vector<std::byte>(size, std::byte(fill)));
}

}  // namespace

TEST(TcpTransportTest, PendingWritesResumeExactlyAfterPartialWrite) {
  rpc::PendingWrites out;
  const std::vector<std::vector<std::byte>> frames = {frame_of(8, 1), frame_of(18, 2),
                                                      frame_of(28, 3)};
  for (const auto& frame : frames) out.push(frame);
  EXPECT_EQ(out.size(), 90u);  // frames of 20, 30 and 40 bytes, back to back
  EXPECT_EQ(out.frames(), 3u);
  ASSERT_EQ(out.unwritten().size(), 90u);
  EXPECT_TRUE(std::equal(frames[0].begin(), frames[0].end(), out.unwritten().begin()));

  // send moved 35 bytes before EAGAIN: frame 0 fully, frame 1 to byte 15.
  // The next write must start mid-frame, not re-send written bytes.
  out.consume(35);
  EXPECT_EQ(out.size(), 55u);
  EXPECT_EQ(out.frames(), 2u);
  std::span<const std::byte> rest = out.unwritten();
  ASSERT_EQ(rest.size(), 55u);
  EXPECT_TRUE(std::equal(rest.begin(), rest.begin() + 15, frames[1].begin() + 15));
  EXPECT_TRUE(std::equal(rest.begin() + 15, rest.end(), frames[2].begin()));

  // A frame queued behind the partial write lands after it, even when the
  // buffer has to make room for it.
  const std::vector<std::byte> late = frame_of(200, 4);
  out.push(late);
  EXPECT_EQ(out.frames(), 3u);
  rest = out.unwritten();
  ASSERT_EQ(rest.size(), 55u + late.size());
  EXPECT_TRUE(std::equal(rest.begin(), rest.begin() + 15, frames[1].begin() + 15));
  EXPECT_TRUE(std::equal(rest.begin() + 55, rest.end(), late.begin()));

  // Exactly finishing the partial frame leaves the next ones whole.
  out.consume(15);
  EXPECT_EQ(out.frames(), 2u);
  EXPECT_TRUE(std::equal(frames[2].begin(), frames[2].end(), out.unwritten().begin()));

  out.consume(40 + late.size());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.size(), 0u);
  EXPECT_EQ(out.frames(), 0u);
}

TEST(TcpTransportTest, PendingWritesReleaseWhatALargeFrameGrew) {
  rpc::PendingWrites out;
  out.push(frame_of(64, 1));
  out.consume(out.size());
  const std::size_t warm = out.capacity();
  EXPECT_GT(warm, 0u);  // a small frame's buffer is kept for the next one

  // A StateResponse-sized frame grows the buffer; once it drained, the
  // connection no longer holds that memory.
  out.push(frame_of(4 * rpc::kRetainedWriteBytes, 2));
  EXPECT_GT(out.capacity(), rpc::kRetainedWriteBytes);
  out.consume(out.size() / 2);
  EXPECT_EQ(out.frames(), 1u);
  out.consume(out.size());
  EXPECT_TRUE(out.empty());
  EXPECT_LE(out.capacity(), rpc::kRetainedWriteBytes);
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

  std::vector<std::unique_ptr<core::IdemReplica>> replicas;
  for (std::uint32_t i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<core::IdemReplica>(
        loop, transport, ReplicaId{i}, config, std::make_unique<app::KvStore>(),
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

  std::vector<std::unique_ptr<core::IdemReplica>> replicas;
  for (std::uint32_t i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<core::IdemReplica>(
        loop, transport, ReplicaId{i}, config, std::make_unique<app::KvStore>(),
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
