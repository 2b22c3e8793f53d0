// Unit tests for the common substrate: ids, codec, rng, histogram,
// time series, JSON.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>
#include <unordered_set>

#include "common/codec.hpp"
#include "common/histogram.hpp"
#include "common/ids.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/timeseries.hpp"

namespace idem {
namespace {

// ---------------------------------------------------------------------------
// Ids
// ---------------------------------------------------------------------------

TEST(Ids, RequestIdOrdering) {
  RequestId a{ClientId{1}, OpNum{5}};
  RequestId b{ClientId{1}, OpNum{6}};
  RequestId c{ClientId{2}, OpNum{1}};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (RequestId{ClientId{1}, OpNum{5}}));
}

TEST(Ids, RequestIdHashDistinct) {
  std::unordered_set<RequestId> set;
  for (std::uint64_t cid = 0; cid < 100; ++cid) {
    for (std::uint64_t onr = 0; onr < 100; ++onr) {
      set.insert(RequestId{ClientId{cid}, OpNum{onr}});
    }
  }
  EXPECT_EQ(set.size(), 10'000u);
}

TEST(Ids, ViewNextAndLeaderRotation) {
  ViewId v{0};
  EXPECT_EQ(v.next().value, 1u);
  EXPECT_EQ(v.next().next().value, 2u);
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(Codec, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.str("hello");
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(Codec, VarintBoundaries) {
  for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                          0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull}) {
    ByteWriter w;
    w.varint(v);
    ByteReader r(w.data());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.done());
  }
}

TEST(Codec, VarintSmallValuesAreOneByte) {
  ByteWriter w;
  w.varint(42);
  EXPECT_EQ(w.size(), 1u);
}

TEST(Codec, TruncatedThrows) {
  ByteWriter w;
  w.u32(7);
  auto data = w.take();
  data.pop_back();
  ByteReader r(data);
  EXPECT_THROW(r.u32(), CodecError);
}

TEST(Codec, TruncatedStringThrows) {
  ByteWriter w;
  w.varint(100);  // length prefix promising more bytes than present
  ByteReader r(w.data());
  EXPECT_THROW(r.str(), CodecError);
}

TEST(Codec, HostileLengthPrefixNearOverflowThrows) {
  // A length prefix close to 2^64 made the old bounds check wrap:
  // pos_ + n overflowed and the read passed, handing out-of-bounds memory
  // to bytes()/str(). The check must reject any n beyond the remainder.
  for (std::uint64_t hostile : {0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFFEull,
                                0x8000000000000000ull, 0xFFFFFFFFFFFFull}) {
    ByteWriter w;
    w.u8(5);  // leading byte so pos_ > 0 when the length is read
    w.varint(hostile);
    ByteReader r(w.data());
    (void)r.u8();
    EXPECT_THROW(r.bytes(), CodecError) << "n=" << hostile;
    ByteReader r2(w.data());
    (void)r2.u8();
    EXPECT_THROW(r2.str(), CodecError) << "n=" << hostile;
  }
}

TEST(Codec, HostileLengthOnePastEndThrows) {
  ByteWriter w;
  w.varint(9);  // promises 9 bytes
  w.u64(0);     // provides 8
  ByteReader r(w.data());
  EXPECT_THROW(r.bytes(), CodecError);
}

TEST(Codec, ExactLengthAtEndSucceeds) {
  ByteWriter w;
  w.varint(8);
  w.u64(0x1122334455667788ull);
  ByteReader r(w.data());
  auto out = r.bytes();
  EXPECT_EQ(out.size(), 8u);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Codec, OverlongVarintThrows) {
  std::vector<std::byte> data(11, std::byte{0x80});  // never terminates
  ByteReader r(data);
  EXPECT_THROW(r.varint(), CodecError);
}

TEST(Codec, WriterReserveAndBulkAppendsMatchByteLayout) {
  // The bulk/memcpy append paths must produce the identical little-endian
  // layout as the byte-at-a-time ones (wire compatibility).
  ByteWriter w;
  w.reserve(64);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.str("abc");
  const auto& buf = w.data();
  ASSERT_EQ(buf.size(), 2u + 4u + 8u + 1u + 3u);
  EXPECT_EQ(buf[0], std::byte{0xEF});
  EXPECT_EQ(buf[1], std::byte{0xBE});
  EXPECT_EQ(buf[2], std::byte{0xEF});
  EXPECT_EQ(buf[3], std::byte{0xBE});
  EXPECT_EQ(buf[4], std::byte{0xAD});
  EXPECT_EQ(buf[5], std::byte{0xDE});
  EXPECT_EQ(buf[6], std::byte{0xEF});
  EXPECT_EQ(buf[13], std::byte{0x01});
  EXPECT_EQ(buf[14], std::byte{3});  // varint length of "abc"
  EXPECT_EQ(buf[15], std::byte{'a'});
}

TEST(Codec, RequestIdRoundTrip) {
  RequestId id{ClientId{77}, OpNum{123456}};
  ByteWriter w;
  w.request_id(id);
  ByteReader r(w.data());
  EXPECT_EQ(r.request_id(), id);
}

TEST(Codec, BytesRoundTrip) {
  std::vector<std::byte> payload(1000);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = std::byte(i & 0xFF);
  ByteWriter w;
  w.bytes(payload);
  ByteReader r(w.data());
  EXPECT_EQ(r.bytes(), payload);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeedAndStream) {
  Rng a(42, 7), b(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamsAreIndependent) {
  Rng a(42, 7), b(42, 8);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(1, 1);
  for (int i = 0; i < 10'000; ++i) {
    auto v = rng.uniform_int(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformIntCoversWholeRange) {
  Rng rng(1, 2);
  std::unordered_set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3, 3);
  for (int i = 0; i < 10'000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(4, 4);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.2);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(5, 5);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitMixIsStable) {
  // Reference values pin the PRF across platforms: the acceptance test
  // depends on identical PRF output at every replica.
  EXPECT_EQ(splitmix64(0), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(splitmix64(1), 0x910A2DEC89025CC1ull);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, ExactSmallValues) {
  Histogram h;
  h.record(5);
  h.record(5);
  h.record(10);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 5);
  EXPECT_EQ(h.max(), 10);
  EXPECT_NEAR(h.mean(), 20.0 / 3, 1e-9);
}

TEST(Histogram, QuantileBoundedRelativeError) {
  Histogram h;
  for (int i = 1; i <= 100'000; ++i) h.record(i);
  // p50 ~ 50000, p99 ~ 99000; bucket error is ~3% at this magnitude.
  EXPECT_NEAR(static_cast<double>(h.p50()), 50'000, 50'000 * 0.04);
  EXPECT_NEAR(static_cast<double>(h.p99()), 99'000, 99'000 * 0.04);
}

TEST(Histogram, StddevMatchesClosedForm) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(100);
  EXPECT_NEAR(h.stddev(), 0.0, 1e-9);
  h.record(200);
  EXPECT_GT(h.stddev(), 0.0);
}

TEST(Histogram, MergeCombinesCounts) {
  Histogram a, b;
  a.record(10);
  b.record(1000);
  b.record(1000000);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000000);
}

TEST(Histogram, NegativeClampsToZero) {
  Histogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
}

TEST(Histogram, LargeValues) {
  Histogram h;
  h.record(3'600'000'000'000ll);  // one hour in ns
  auto q = h.quantile(1.0);
  EXPECT_GE(q, 3'600'000'000'000ll);
  EXPECT_LE(static_cast<double>(q), 3'600'000'000'000.0 * 1.04);
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.record(10);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0);
}

TEST(Histogram, SingleValueQuantilesCollapse) {
  // One sample: every quantile lands in its bucket, min == max == value.
  Histogram h;
  h.record(42);
  EXPECT_EQ(h.min(), 42);
  EXPECT_EQ(h.max(), 42);
  EXPECT_EQ(h.quantile(0.0), h.quantile(1.0));
  EXPECT_EQ(h.p50(), h.p999());
  EXPECT_GE(h.p50(), 42);
}

TEST(Histogram, SaturatedBucketCountsDoNotOverflowQuantiles) {
  // A single bucket holding ~1e9 samples must not wrap the cumulative
  // scan; small values are bucketed exactly, so quantiles stay at 7.
  Histogram h;
  h.record_n(7, 1'000'000'000ull);
  EXPECT_EQ(h.count(), 1'000'000'000ull);
  EXPECT_EQ(h.p50(), 7);
  EXPECT_EQ(h.p999(), 7);
}

TEST(Histogram, DeltaOfIdenticalStatesIsEmpty) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(1000 + i);
  Histogram d = h.delta(h);
  EXPECT_EQ(d.count(), 0u);
  EXPECT_EQ(d.quantile(0.5), 0);
  EXPECT_EQ(d.mean(), 0.0);
}

TEST(Histogram, DeltaFromEmptyEarlierIsTheFullDistribution) {
  Histogram h, empty;
  h.record(10);
  h.record(10'000);
  Histogram d = h.delta(empty);
  EXPECT_EQ(d.count(), 2u);
  EXPECT_EQ(d.p50(), h.p50());
  EXPECT_EQ(d.p999(), h.p999());
}

TEST(Histogram, DeltaIsolatesTheWindow) {
  // Old samples at 100 ns, window samples at 10 us: the delta must see
  // only the window's distribution, not the cumulative mixture.
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(100);
  Histogram earlier = h;
  for (int i = 0; i < 200; ++i) h.record(10'000);
  Histogram window = h.delta(earlier);
  EXPECT_EQ(window.count(), 200u);
  EXPECT_NEAR(static_cast<double>(window.p50()), 10'000, 10'000 * 0.04);
  EXPECT_NEAR(window.mean(), 10'000, 10'000 * 0.04);
  // min/max are bucket-edge approximations of the window's extremes; they
  // must bracket the only recorded window value.
  EXPECT_GT(window.min(), 100);
  EXPECT_LE(static_cast<double>(window.min()), 10'000);
  EXPECT_GE(static_cast<double>(window.max()), 10'000 * 0.96);
}

// ---------------------------------------------------------------------------
// TimeSeries
// ---------------------------------------------------------------------------

TEST(TimeSeries, BucketsByWindow) {
  TimeSeries ts(100 * kMillisecond);
  ts.add(10 * kMillisecond, 1.0);
  ts.add(50 * kMillisecond, 3.0);
  ts.add(150 * kMillisecond, 5.0);
  auto rows = ts.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_NEAR(rows[0].mean(), 2.0, 1e-9);
  EXPECT_EQ(rows[1].count, 1u);
  EXPECT_NEAR(rows[1].value_min, 5.0, 1e-9);
}

TEST(TimeSeries, EmptyWindowsIncluded) {
  TimeSeries ts(kSecond);
  ts.add(0, 1.0);
  ts.add(5 * kSecond, 1.0);
  auto rows = ts.rows();
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows[2].count, 0u);
}

TEST(TimeSeries, RateComputation) {
  TimeSeries ts(kSecond);
  for (int i = 0; i < 500; ++i) ts.add(i * 2 * kMillisecond);
  auto rows = ts.rows();
  ASSERT_FALSE(rows.empty());
  EXPECT_NEAR(rows[0].rate(kSecond), 500.0, 1e-9);
}

TEST(TimeSeries, NegativeTimeClamped) {
  TimeSeries ts(kSecond);
  ts.add(-5, 1.0);
  EXPECT_EQ(ts.rows()[0].count, 1u);
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

std::string parse_error(std::string_view text) {
  try {
    json::Value::parse(text);
  } catch (const json::ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(Json, RejectsRawControlCharactersInStrings) {
  // JSON requires control characters inside strings to be escaped.
  EXPECT_EQ(parse_error("{\"a\": \"x\ty\"}"), "raw control character in string at offset 8");
  EXPECT_EQ(parse_error("[\"\n\"]"), "raw control character in string at offset 2");
  EXPECT_EQ(json::Value::parse("\"x\\ty\"").as_string(), "x\ty");
}

TEST(Json, ParseErrorsNameTheirByteOffset) {
  EXPECT_EQ(parse_error("{\"a\": 1} x"), "trailing characters after document at offset 9");
  EXPECT_EQ(parse_error("[1, }"), "bad number at offset 4");
}

TEST(Json, FindReturnsMembersOnlyOfObjects) {
  const json::Value doc = json::Value::parse("{\"a\": [1, 2], \"b\": null}");
  ASSERT_NE(doc.find("a"), nullptr);
  EXPECT_EQ(doc.find("a")->as_array().size(), 2u);
  EXPECT_TRUE(doc.find("b")->is_null());
  EXPECT_EQ(doc.find("c"), nullptr);
  EXPECT_EQ(doc.find("a")->find("x"), nullptr);
}

}  // namespace
}  // namespace idem
