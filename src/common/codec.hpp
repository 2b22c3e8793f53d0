// Binary serialization for wire messages.
//
// A small, explicit little-endian codec. Every protocol message implements
// encode()/decode() with it; the simulator uses the encoded size for
// network-byte accounting (Table 1 reproduces a traffic measurement), and
// the round-trip is exercised directly by the unit tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/ids.hpp"

namespace idem {

/// Thrown by ByteReader when a message is truncated or malformed.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends primitive values to a growing byte buffer.
///
/// Multi-byte integers and string/byte payloads are appended as single bulk
/// writes (resize + memcpy) instead of per-byte push_back; encoders that know
/// their wire size call reserve() first so a message serializes with exactly
/// one allocation.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Writes over a recycled buffer: its bytes are discarded and its
  /// capacity kept, so a writer handed back the buffer it produced last
  /// time (see take()) encodes without allocating.
  explicit ByteWriter(std::vector<std::byte> recycled) : buf_(std::move(recycled)) {
    buf_.clear();
  }

  /// Pre-size the buffer for a message of known encoded length.
  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(std::byte{v}); }

  void u16(std::uint16_t v) {
    const std::uint8_t raw[2] = {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8)};
    append_raw(raw, sizeof raw);
  }

  void u32(std::uint32_t v) {
    const std::uint8_t raw[4] = {
        static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
        static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
    append_raw(raw, sizeof raw);
  }

  void u64(std::uint64_t v) {
    std::uint8_t raw[8];
    for (int i = 0; i < 8; ++i) raw[i] = static_cast<std::uint8_t>(v >> (8 * i));
    append_raw(raw, sizeof raw);
  }

  /// LEB128-style variable-length unsigned integer; ids and counts are
  /// usually tiny, and the paper stresses that agreement on *ids* instead of
  /// full requests keeps messages several magnitudes smaller (Section 4.2).
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    u8(static_cast<std::uint8_t>(v));
  }

  void bytes(std::span<const std::byte> data) {
    varint(data.size());
    append_raw(data.data(), data.size());
  }

  void str(std::string_view s) {
    varint(s.size());
    append_raw(s.data(), s.size());
  }

  void request_id(RequestId id) {
    varint(id.cid.value);
    varint(id.onr.value);
  }

  const std::vector<std::byte>& data() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void append_raw(const void* src, std::size_t n) {
    if (n == 0) return;
    const std::size_t old = buf_.size();
    buf_.resize(old + n);
    std::memcpy(buf_.data() + old, src, n);
  }

  std::vector<std::byte> buf_;
};

/// Reads primitive values back out of a byte buffer, bounds-checked.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8() {
    require(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint16_t u16() {
    auto lo = u8();
    auto hi = u8();
    return static_cast<std::uint16_t>(lo | (hi << 8));
  }

  std::uint32_t u32() {
    std::uint32_t lo = u16();
    std::uint32_t hi = u16();
    return lo | (hi << 16);
  }

  std::uint64_t u64() {
    std::uint64_t lo = u32();
    std::uint64_t hi = u32();
    return lo | (hi << 32);
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (shift > 63) throw CodecError("varint too long");
      std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }

  std::vector<std::byte> bytes() {
    auto len = varint();
    require(len);
    std::vector<std::byte> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                               data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return out;
  }

  std::string str() { return std::string(str_view()); }

  /// The next length-prefixed string as a view into the buffer: no copy,
  /// valid while the buffer is.
  std::string_view str_view() {
    auto len = varint();
    require(len);
    std::string_view out(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return out;
  }

  RequestId request_id() {
    RequestId id;
    id.cid.value = varint();
    id.onr.value = varint();
    return id;
  }

  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void require(std::size_t n) const {
    // Written as a subtraction so a hostile length prefix cannot wrap
    // `pos_ + n` past SIZE_MAX and slip under data_.size(). pos_ never
    // exceeds data_.size(), so the subtraction itself cannot underflow.
    if (n > data_.size() - pos_) throw CodecError("message truncated");
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace idem
