// Round-trip and framing tests for every wire message type.
#include <gtest/gtest.h>

#include <random>

#include "common/rng.hpp"
#include "consensus/cost_model.hpp"
#include "consensus/messages.hpp"

namespace idem::msg {
namespace {

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> out;
  for (const char* p = s; *p; ++p) out.push_back(static_cast<std::byte>(*p));
  return out;
}

/// Encodes `message`, decodes it through the type-dispatching decoder, and
/// returns the typed copy.
template <typename M>
M round_trip(const M& message) {
  auto encoded = message.encode();
  auto decoded = decode(encoded);
  const auto* typed = dynamic_cast<const M*>(decoded.get());
  EXPECT_NE(typed, nullptr) << "decoded to wrong type";
  // Re-encoding must be byte-identical (canonical encoding).
  EXPECT_EQ(typed->encode(), encoded);
  return *typed;
}

TEST(Messages, RequestRoundTrip) {
  Request m(RequestId{ClientId{7}, OpNum{42}}, bytes_of("command-bytes"));
  Request back = round_trip(m);
  EXPECT_EQ(back.id, m.id);
  EXPECT_EQ(back.command, m.command);
}

TEST(Messages, RequestDeadlineRoundTripsWhenWireFlagOn) {
  // A REQUEST carries its latency budget.
  Request m(RequestId{ClientId{7}, OpNum{42}}, bytes_of("cmd"), 25 * kMillisecond);
  Request back = round_trip(m);
  EXPECT_EQ(back.id, m.id);
  EXPECT_EQ(back.command, m.command);
  EXPECT_EQ(back.deadline, 25 * kMillisecond);
}

TEST(Messages, RequestDeadlineDroppedWhenWireFlagOff) {
  // A frame without the trailing deadline field, as an older peer sends
  // it, decodes to "no budget".
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Type::Request));
  w.request_id(RequestId{ClientId{7}, OpNum{42}});
  w.bytes(bytes_of("cmd"));
  auto decoded = decode(w.take());
  const auto* typed = dynamic_cast<const Request*>(decoded.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->id, (RequestId{ClientId{7}, OpNum{42}}));
  EXPECT_EQ(typed->command, bytes_of("cmd"));
  EXPECT_EQ(typed->deadline, 0);
}

TEST(Messages, RequestZeroDeadlineStaysOffTheWireEvenWhenArmed) {
  // "No budget" is the absence of the field, not a zero varint — a
  // deadline-less client sends the same bytes as an older peer.
  Request m(RequestId{ClientId{1}, OpNum{2}}, bytes_of("cmd"), 0);
  Request plain(RequestId{ClientId{1}, OpNum{2}}, bytes_of("cmd"));
  EXPECT_EQ(m.wire_size(), plain.wire_size());
}

TEST(Messages, RequestDecodeToleratesDeadlineFromNewerPeer) {
  // The decoder reads the trailing deadline field whenever it is present.
  auto encoded =
      Request(RequestId{ClientId{3}, OpNum{4}}, bytes_of("cmd"), 7 * kMillisecond).encode();
  auto decoded = decode(encoded);
  const auto* typed = dynamic_cast<const Request*>(decoded.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->id, (RequestId{ClientId{3}, OpNum{4}}));
  EXPECT_EQ(typed->deadline, 7 * kMillisecond);
}

TEST(Messages, ReplyRoundTrip) {
  Reply m(RequestId{ClientId{1}, OpNum{2}}, bytes_of("result"));
  Reply back = round_trip(m);
  EXPECT_EQ(back.id, m.id);
  EXPECT_EQ(back.result, m.result);
}

TEST(Messages, RejectRoundTrip) {
  Reject m(RequestId{ClientId{9}, OpNum{100}});
  EXPECT_EQ(round_trip(m).id, m.id);
}

TEST(Messages, RejectIsTiny) {
  // Rejections must be cheap: a handful of bytes.
  Reject m(RequestId{ClientId{5}, OpNum{1000}});
  EXPECT_LE(m.wire_size(), 8u);
}

TEST(Messages, RejectReasonRoundTripsWhenWireFlagOn) {
  // A REJECT carries its taxonomy reason.
  Reject m(RequestId{ClientId{9}, OpNum{100}}, RejectReason::RejectedCacheHit);
  Reject back = round_trip(m);
  EXPECT_EQ(back.id, m.id);
  EXPECT_EQ(back.reason, RejectReason::RejectedCacheHit);
}

TEST(Messages, RejectReasonDroppedWhenWireFlagOff) {
  // A frame without the reason byte, as an older peer sends it, decodes
  // to None.
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Type::Reject));
  w.request_id(RequestId{ClientId{9}, OpNum{100}});
  auto decoded = decode(w.take());
  const auto* typed = dynamic_cast<const Reject*>(decoded.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->id, (RequestId{ClientId{9}, OpNum{100}}));
  EXPECT_EQ(typed->reason, RejectReason::None);
}

TEST(Messages, RejectDecodeToleratesUnknownReasonByte) {
  // A reason value from a newer peer must not kill the connection; it
  // falls back to None instead.
  auto encoded = Reject(RequestId{ClientId{1}, OpNum{2}}, RejectReason::RtQueueFull).encode();
  encoded.back() = static_cast<std::byte>(0xEE);
  auto decoded = decode(encoded);
  const auto* typed = dynamic_cast<const Reject*>(decoded.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->reason, RejectReason::None);
}

TEST(Messages, RequireRoundTrip) {
  Require m;
  m.from = ReplicaId{2};
  for (int i = 0; i < 20; ++i) m.ids.push_back(RequestId{ClientId{std::uint64_t(i)}, OpNum{5}});
  Require back = round_trip(m);
  EXPECT_EQ(back.from, m.from);
  EXPECT_EQ(back.ids, m.ids);
}

TEST(Messages, ProposeCarriesIdsNotRequests) {
  Propose m;
  m.view = ViewId{3};
  m.sqn = SeqNum{12345};
  for (int i = 0; i < 32; ++i) {
    m.ids.push_back(RequestId{ClientId{std::uint64_t(i)}, OpNum{77}});
  }
  Propose back = round_trip(m);
  EXPECT_EQ(back.view, m.view);
  EXPECT_EQ(back.sqn, m.sqn);
  EXPECT_EQ(back.ids, m.ids);
  // Agreement on ids keeps proposals small (paper Section 4.2): far less
  // than 32 full 100-byte requests.
  EXPECT_LT(m.wire_size(), 32 * 50u);
}

TEST(Messages, CommitRoundTrip) {
  Commit m;
  m.from = ReplicaId{1};
  m.view = ViewId{0};
  m.sqn = SeqNum{9};
  m.ids = {RequestId{ClientId{3}, OpNum{4}}};
  Commit back = round_trip(m);
  EXPECT_EQ(back.from, m.from);
  EXPECT_EQ(back.ids, m.ids);
}

TEST(Messages, ForwardRoundTrip) {
  Forward m;
  m.from = ReplicaId{0};
  m.requests.emplace_back(RequestId{ClientId{1}, OpNum{1}}, bytes_of("a"));
  m.requests.emplace_back(RequestId{ClientId{2}, OpNum{5}}, bytes_of("bb"));
  Forward back = round_trip(m);
  ASSERT_EQ(back.requests.size(), 2u);
  EXPECT_EQ(back.requests[1].command, bytes_of("bb"));
}

TEST(Messages, EmbeddedRequestsNeverCarryDeadlines) {
  // The budget matters at admission time; by forward/propose time the
  // request is already accepted, so the embedded codec drops it.
  Forward m;
  m.from = ReplicaId{1};
  m.requests.emplace_back(RequestId{ClientId{2}, OpNum{3}}, bytes_of("cmd"),
                          9 * kMillisecond);
  Forward back = round_trip(m);
  ASSERT_EQ(back.requests.size(), 1u);
  EXPECT_EQ(back.requests[0].deadline, 0);
}

TEST(Messages, FetchRoundTrip) {
  Fetch m;
  m.from = ReplicaId{2};
  m.id = RequestId{ClientId{8}, OpNum{16}};
  Fetch back = round_trip(m);
  EXPECT_EQ(back.id, m.id);
}

TEST(Messages, ViewChangeRoundTrip) {
  ViewChange m;
  m.from = ReplicaId{1};
  m.target = ViewId{4};
  m.window_start = SeqNum{100};
  WindowEntry entry;
  entry.sqn = SeqNum{101};
  entry.view = ViewId{3};
  entry.items = {RequestId{ClientId{1}, OpNum{2}}, RequestId{ClientId{3}, OpNum{4}}};
  m.proposals.push_back(entry);
  ViewChange back = round_trip(m);
  ASSERT_EQ(back.proposals.size(), 1u);
  EXPECT_EQ(back.proposals[0].sqn, entry.sqn);
  EXPECT_EQ(back.proposals[0].view, entry.view);
  EXPECT_EQ(back.proposals[0].items, entry.items);
}

TEST(Messages, StateRequestRoundTrip) {
  StateRequest m;
  m.from = ReplicaId{2};
  m.have = SeqNum{55};
  EXPECT_EQ(round_trip(m).have, m.have);
}

TEST(Messages, StateResponseRoundTrip) {
  StateResponse m;
  m.from = ReplicaId{0};
  m.upto = SeqNum{255};
  m.snapshot = bytes_of("snapshot-data");
  m.last_executed = {{ClientId{1}, OpNum{10}}, {ClientId{2}, OpNum{20}}};
  StateResponse back = round_trip(m);
  EXPECT_EQ(back.snapshot, m.snapshot);
  EXPECT_EQ(back.last_executed, m.last_executed);
}

TEST(Messages, PaxosProposeRoundTrip) {
  PaxosPropose m;
  m.view = ViewId{1};
  m.sqn = SeqNum{2};
  m.requests.emplace_back(RequestId{ClientId{1}, OpNum{1}}, bytes_of("full-request"));
  PaxosPropose back = round_trip(m);
  ASSERT_EQ(back.requests.size(), 1u);
  EXPECT_EQ(back.requests[0].command, bytes_of("full-request"));
}

TEST(Messages, PaxosProposeIsBiggerThanIdemPropose) {
  // The structural difference the paper exploits: IDEM agrees on ids.
  std::vector<std::byte> command(100, std::byte{'x'});
  PaxosPropose paxos;
  paxos.view = ViewId{0};
  paxos.sqn = SeqNum{0};
  Propose idem;
  idem.view = ViewId{0};
  idem.sqn = SeqNum{0};
  for (int i = 0; i < 16; ++i) {
    RequestId id{ClientId{std::uint64_t(i)}, OpNum{1}};
    paxos.requests.emplace_back(id, command);
    idem.ids.push_back(id);
  }
  EXPECT_GT(paxos.wire_size(), 10 * idem.wire_size());
}

TEST(Messages, PaxosAcceptRoundTrip) {
  PaxosAccept m;
  m.from = ReplicaId{1};
  m.view = ViewId{2};
  m.sqn = SeqNum{3};
  PaxosAccept back = round_trip(m);
  EXPECT_EQ(back.sqn, m.sqn);
}

TEST(Messages, PaxosViewChangeRoundTrip) {
  PaxosViewChange m;
  m.from = ReplicaId{0};
  m.target = ViewId{2};
  m.window_start = SeqNum{10};
  PaxosWindowEntry entry;
  entry.sqn = SeqNum{11};
  entry.view = ViewId{1};
  entry.items.emplace_back(RequestId{ClientId{4}, OpNum{4}}, bytes_of("cmd"));
  m.proposals.push_back(entry);
  PaxosViewChange back = round_trip(m);
  ASSERT_EQ(back.proposals.size(), 1u);
  EXPECT_EQ(back.proposals[0].view, ViewId{1});
  EXPECT_EQ(back.proposals[0].items[0].command, bytes_of("cmd"));
}

TEST(Messages, PaxosHeartbeatRoundTrip) {
  PaxosHeartbeat m;
  m.from = ReplicaId{1};
  m.view = ViewId{7};
  EXPECT_EQ(round_trip(m).view, m.view);
}

TEST(Messages, SmartMessagesRoundTrip) {
  SmartPropose p;
  p.view = ViewId{0};
  p.sqn = SeqNum{1};
  p.requests.emplace_back(RequestId{ClientId{1}, OpNum{1}}, bytes_of("x"));
  EXPECT_EQ(round_trip(p).requests.size(), 1u);

  SmartWrite w;
  w.from = ReplicaId{2};
  w.view = ViewId{0};
  w.sqn = SeqNum{1};
  EXPECT_EQ(round_trip(w).from, w.from);

  SmartAccept a;
  a.from = ReplicaId{1};
  a.view = ViewId{0};
  a.sqn = SeqNum{1};
  EXPECT_EQ(round_trip(a).sqn, a.sqn);
}

// Randomized round-trips over the shared window-entry codec
// (BasicWindowEntry<Item>): both instantiations, random shapes — empty
// proposal lists, empty item lists, and odd body sizes included. The
// fixed seed keeps failures reproducible.
TEST(Messages, WindowEntryRandomRoundTrip) {
  std::mt19937_64 rng(0xF00D);
  for (int iter = 0; iter < 200; ++iter) {
    ViewChange m;
    m.from = ReplicaId{static_cast<std::uint32_t>(rng() % 7)};
    m.target = ViewId{rng() % 1000};
    m.window_start = SeqNum{rng() % 100000};
    const std::size_t entries = rng() % 6;
    for (std::size_t e = 0; e < entries; ++e) {
      WindowEntry entry;
      entry.sqn = SeqNum{rng()};
      entry.view = ViewId{rng() % 1000};
      const std::size_t items = rng() % 9;
      for (std::size_t i = 0; i < items; ++i) {
        entry.items.push_back(RequestId{ClientId{rng() % 512}, OpNum{rng() % 100000}});
      }
      m.proposals.push_back(std::move(entry));
    }
    ViewChange back = round_trip(m);
    EXPECT_EQ(back.from, m.from);
    EXPECT_EQ(back.target, m.target);
    EXPECT_EQ(back.window_start, m.window_start);
    ASSERT_EQ(back.proposals.size(), m.proposals.size());
    for (std::size_t e = 0; e < m.proposals.size(); ++e) {
      EXPECT_EQ(back.proposals[e].sqn, m.proposals[e].sqn);
      EXPECT_EQ(back.proposals[e].view, m.proposals[e].view);
      EXPECT_EQ(back.proposals[e].items, m.proposals[e].items);
    }
  }
}

TEST(Messages, PaxosWindowEntryRandomRoundTrip) {
  std::mt19937_64 rng(0xBEEF);
  for (int iter = 0; iter < 200; ++iter) {
    PaxosViewChange m;
    m.from = ReplicaId{static_cast<std::uint32_t>(rng() % 7)};
    m.target = ViewId{rng() % 1000};
    m.window_start = SeqNum{rng() % 100000};
    const std::size_t entries = rng() % 5;
    for (std::size_t e = 0; e < entries; ++e) {
      PaxosWindowEntry entry;
      entry.sqn = SeqNum{rng()};
      entry.view = ViewId{rng() % 1000};
      const std::size_t items = rng() % 5;
      for (std::size_t i = 0; i < items; ++i) {
        std::vector<std::byte> command(rng() % 65);
        for (std::byte& b : command) b = static_cast<std::byte>(rng());
        entry.items.emplace_back(RequestId{ClientId{rng() % 512}, OpNum{rng() % 100000}},
                                 std::move(command));
      }
      m.proposals.push_back(std::move(entry));
    }
    PaxosViewChange back = round_trip(m);
    EXPECT_EQ(back.from, m.from);
    EXPECT_EQ(back.target, m.target);
    EXPECT_EQ(back.window_start, m.window_start);
    ASSERT_EQ(back.proposals.size(), m.proposals.size());
    for (std::size_t e = 0; e < m.proposals.size(); ++e) {
      EXPECT_EQ(back.proposals[e].sqn, m.proposals[e].sqn);
      EXPECT_EQ(back.proposals[e].view, m.proposals[e].view);
      ASSERT_EQ(back.proposals[e].items.size(), m.proposals[e].items.size());
      for (std::size_t i = 0; i < m.proposals[e].items.size(); ++i) {
        EXPECT_EQ(back.proposals[e].items[i].id, m.proposals[e].items[i].id);
        EXPECT_EQ(back.proposals[e].items[i].command, m.proposals[e].items[i].command);
      }
    }
  }
}

TEST(Messages, DecodeRejectsUnknownType) {
  std::vector<std::byte> bogus = {std::byte{0xEE}};
  EXPECT_THROW(decode(bogus), CodecError);
}

TEST(Messages, DecodeRejectsTruncated) {
  Request m(RequestId{ClientId{7}, OpNum{42}}, bytes_of("command"));
  auto encoded = m.encode();
  encoded.resize(encoded.size() - 3);
  EXPECT_THROW(decode(encoded), CodecError);
}

TEST(Messages, WireSizeMatchesEncoding) {
  Forward m;
  m.from = ReplicaId{0};
  m.requests.emplace_back(RequestId{ClientId{1}, OpNum{1}}, bytes_of("payload"));
  EXPECT_EQ(m.wire_size(), m.encode().size());
}

TEST(Messages, EncodeToAppendsTheEncodingBehindWhatTheWriterHolds) {
  Request m(RequestId{ClientId{7}, OpNum{42}}, bytes_of("command"), 3 * kMillisecond);
  ByteWriter w;
  w.u32(0xDEADBEEF);  // a frame header, say
  m.encode_to(w);
  const std::vector<std::byte> expected = m.encode();
  ASSERT_EQ(w.size(), 4 + expected.size());
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), w.data().begin() + 4));
}

// ---------------------------------------------------------------------------
// CostModel: the size term charges for the encoded size
// ---------------------------------------------------------------------------

/// A payload that counts how often its size is asked for.
struct SizedPayload final : sim::Payload {
  explicit SizedPayload(std::size_t bytes_) : bytes(bytes_) {}
  std::size_t wire_size() const override {
    ++asked;
    return bytes;
  }
  std::string kind() const override { return "SIZED"; }
  std::size_t bytes;
  mutable std::size_t asked = 0;
};

TEST(CostModelTest, PerByteChargeIsUnchanged) {
  using consensus::CostModel;
  const CostModel model;  // 4 ns/B received, 1 ns/B sent, jittered
  SizedPayload payload(1000);
  Rng a(5, 2);
  Rng b(5, 2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(model.cost(payload, a),
              model.apply_jitter(
                  CostModel::kPerMessage + static_cast<Duration>(CostModel::kNsPerByte * 1000.0),
                  b));
    EXPECT_EQ(model.send_cost(payload, a),
              model.apply_jitter(CostModel::kSendPerMessage +
                                     static_cast<Duration>(CostModel::kSendNsPerByte * 1000.0),
                                 b));
  }
  EXPECT_EQ(payload.asked, 200u);
}

}  // namespace
}  // namespace idem::msg
