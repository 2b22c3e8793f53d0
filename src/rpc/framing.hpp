// Wire framing for the TCP transport.
//
// Every frame is [u32 length][u32 sender-node-id][u32 route][payload bytes],
// with the payload being a consensus::messages binary encoding. The route
// word depends on the connection's direction:
//   - on a connection the sender dialed, it is the sender's listen port,
//     so receivers learn return addresses automatically (a replica can
//     reach a peer it has never been configured with). Port 0 means the
//     sender has no listener;
//   - on an answer travelling back over a connection the receiver dialed,
//     it is the destination node id, so one connection can carry the
//     answers of every node the dialing transport hosts. Replicas answer
//     replicas this way too: a replica's PROPOSE to a follower that
//     dialed it rides that follower's connection, addressed by node id.
// build_frame() encodes a frame in place into a recycled buffer; a frame
// sent to several nodes is built once and only its route word rewritten
// per destination (set_frame_route()). FrameReader reassembles frames from
// an arbitrary stream of socket reads.
//
// Hot-path shape: the reader owns one grow-only buffer that sockets recv
// directly into (write_span()/commit()), and parsing tracks a head offset
// instead of erasing consumed bytes from the front — so the steady state
// does zero allocation and zero per-frame memmove. The buffer compacts
// (one memmove of the partial-frame tail) only when a frame straddles the
// buffer end, and grows only when a frame is larger than anything seen
// before on this connection.
//
// Hardening: decode enforces a maximum frame size (configurable per
// reader; kMaxFrameBytes by default) so one malformed or hostile length
// header cannot make a replica buffer gigabytes. The reader reports *why*
// it gave up (error()) and whether a closed stream ended mid-frame
// (truncated()), so transports can count both conditions instead of
// dropping connections silently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "common/codec.hpp"

namespace idem::rpc {

constexpr std::size_t kFrameHeaderBytes = 12;  // u32 length + u32 sender + u32 route
constexpr std::size_t kMaxFrameBytes = 64 * 1024 * 1024;

/// Default size of the span write_span() offers to recv into; also the
/// reader's initial buffer capacity, so typical connections never grow.
constexpr std::size_t kReadChunkBytes = 16 * 1024;

/// Little-endian u32 at `at` — the header words' byte order.
inline void store_frame_word(std::byte* at, std::uint32_t v) {
  at[0] = std::byte(v & 0xFF);
  at[1] = std::byte((v >> 8) & 0xFF);
  at[2] = std::byte((v >> 16) & 0xFF);
  at[3] = std::byte((v >> 24) & 0xFF);
}

inline std::uint32_t load_frame_word(const std::byte* at) {
  return static_cast<std::uint32_t>(at[0]) | (static_cast<std::uint32_t>(at[1]) << 8) |
         (static_cast<std::uint32_t>(at[2]) << 16) | (static_cast<std::uint32_t>(at[3]) << 24);
}

/// Builds one frame ready for transmission. `route` is the sender's listen
/// port (0 for none) on a dialed connection, or the destination node id on
/// an answer over an accepted one.
inline std::vector<std::byte> encode_frame(std::uint32_t sender, std::uint32_t route,
                                           std::span<const std::byte> payload) {
  std::vector<std::byte> out(kFrameHeaderBytes + payload.size());
  store_frame_word(out.data(), static_cast<std::uint32_t>(payload.size()));
  store_frame_word(out.data() + 4, sender);
  store_frame_word(out.data() + 8, route);
  if (!payload.empty()) std::memcpy(out.data() + kFrameHeaderBytes, payload.data(), payload.size());
  return out;
}

/// Builds one frame in place: the header, then whatever `write_payload`
/// appends to the ByteWriter it is given, then the length patched in.
/// `frame` is recycled — its old bytes are replaced, its capacity kept —
/// so a warmed-up buffer frames a message without allocating.
template <typename WritePayload>
void build_frame(std::vector<std::byte>& frame, std::uint32_t sender, std::uint32_t route,
                 const WritePayload& write_payload) {
  ByteWriter w(std::move(frame));
  w.u32(0);
  w.u32(sender);
  w.u32(route);
  write_payload(w);
  frame = w.take();
  store_frame_word(frame.data(), static_cast<std::uint32_t>(frame.size() - kFrameHeaderBytes));
}

/// Rewrites the route word of a built frame.
inline void set_frame_route(std::span<std::byte> frame, std::uint32_t route) {
  store_frame_word(frame.data() + 8, route);
}

/// Incremental frame decoder: recv into write_span(), commit() the byte
/// count, then drain() complete frames through the callback. feed() wraps
/// the three for callers that already hold the bytes. Tolerates frames
/// split across any number of reads, and multiple frames per read.
class FrameReader {
 public:
  using FrameCallback = std::function<void(std::uint32_t sender, std::uint32_t route,
                                           std::span<const std::byte> payload)>;

  enum class Error : std::uint8_t {
    None = 0,
    Oversized,  ///< a length header exceeded the frame-size bound
  };

  /// `max_frame` bounds the payload size decode will accept; larger length
  /// headers poison the stream (drain() returns false and stays false).
  /// The buffer is pre-sized to `initial_capacity` so steady-state reads
  /// never allocate.
  explicit FrameReader(std::size_t max_frame = kMaxFrameBytes,
                       std::size_t initial_capacity = kReadChunkBytes)
      : max_frame_(max_frame) {
    buffer_.resize(initial_capacity);
  }

  /// Writable space to recv into, at least `min_bytes` long. Compacts the
  /// buffered partial frame to the front if the tail space ran out, and
  /// grows the buffer only if even a compacted buffer cannot hold
  /// `min_bytes` more.
  std::span<std::byte> write_span(std::size_t min_bytes = kReadChunkBytes) {
    if (buffer_.size() - fill_ < min_bytes) {
      compact();
      if (buffer_.size() - fill_ < min_bytes) {
        std::size_t grown = std::max(buffer_.size() * 2, fill_ + min_bytes);
        buffer_.resize(grown);
      }
    }
    return std::span<std::byte>(buffer_.data() + fill_, buffer_.size() - fill_);
  }

  /// Marks `n` bytes of the last write_span() as filled by the socket.
  void commit(std::size_t n) { fill_ += n; }

  /// Parses every complete frame out of the buffer, invoking `callback`
  /// for each. Returns false if the stream is malformed (oversized frame;
  /// see error()) — the caller should drop the connection and account for
  /// the bad frame. Templated on the callback so hot-path callers pass a
  /// raw lambda with no std::function conversion (which could allocate).
  template <typename Callback>
  bool drain(const Callback& callback) {
    if (error_ != Error::None) return false;
    while (fill_ - head_ >= kFrameHeaderBytes) {
      std::uint32_t length = read_u32(head_);
      std::uint32_t sender = read_u32(head_ + 4);
      std::uint32_t route = read_u32(head_ + 8);
      if (length > max_frame_) {
        error_ = Error::Oversized;
        return false;
      }
      if (fill_ - head_ - kFrameHeaderBytes < length) break;
      callback(sender, route,
               std::span<const std::byte>(buffer_.data() + head_ + kFrameHeaderBytes, length));
      head_ += kFrameHeaderBytes + length;
    }
    if (head_ == fill_) {
      // Everything parsed: rewind for free instead of compacting later.
      head_ = 0;
      fill_ = 0;
    }
    return true;
  }

  /// Appends `data` and parses; equivalent to write_span+memcpy+commit+
  /// drain. Kept for callers (and tests) that already hold the bytes.
  template <typename Callback>
  bool feed(std::span<const std::byte> data, const Callback& callback) {
    if (error_ != Error::None) return false;
    if (!data.empty()) {
      std::span<std::byte> dst = write_span(data.size());
      std::memcpy(dst.data(), data.data(), data.size());
      commit(data.size());
    }
    return drain(callback);
  }

  /// Bytes received but not yet consumed as complete frames.
  std::size_t buffered() const { return fill_ - head_; }
  /// Current buffer capacity — stable across reads once warmed up.
  std::size_t capacity() const { return buffer_.size(); }
  std::size_t max_frame() const { return max_frame_; }
  Error error() const { return error_; }

  /// True when the stream holds a partial frame — meaningful when the
  /// peer closed the connection: the frame in flight was truncated.
  bool truncated() const { return buffered() != 0; }

 private:
  void compact() {
    if (head_ == 0) return;
    std::memmove(buffer_.data(), buffer_.data() + head_, fill_ - head_);
    fill_ -= head_;
    head_ = 0;
  }

  std::uint32_t read_u32(std::size_t at) const { return load_frame_word(buffer_.data() + at); }

  std::size_t max_frame_;
  Error error_ = Error::None;
  std::vector<std::byte> buffer_;
  std::size_t head_ = 0;  ///< start of unparsed bytes
  std::size_t fill_ = 0;  ///< end of valid bytes
};

}  // namespace idem::rpc
