#include "app/kv_store.hpp"

#include "common/codec.hpp"

namespace idem::app {

std::vector<std::byte> KvCommand::encode() const {
  ByteWriter w;
  w.reserve(key.size() + value.size() + 16);
  w.u8(static_cast<std::uint8_t>(op));
  w.str(key);
  switch (op) {
    case KvOp::Put:
      w.str(value);
      break;
    case KvOp::Scan:
      w.varint(scan_len);
      break;
    case KvOp::Get:
    case KvOp::Delete:
      break;
  }
  return w.take();
}

KvCommand KvCommand::decode(std::span<const std::byte> data) {
  ByteReader r(data);
  KvCommand cmd;
  cmd.op = static_cast<KvOp>(r.u8());
  cmd.key = r.str();
  switch (cmd.op) {
    case KvOp::Put:
      cmd.value = r.str();
      break;
    case KvOp::Scan:
      cmd.scan_len = static_cast<std::uint32_t>(r.varint());
      break;
    case KvOp::Get:
    case KvOp::Delete:
      break;
  }
  return cmd;
}

std::vector<std::byte> KvResult::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(status));
  w.varint(values.size());
  for (const auto& v : values) w.str(v);
  return w.take();
}

KvResult KvResult::decode(std::span<const std::byte> data) {
  ByteReader r(data);
  KvResult res;
  res.status = static_cast<Status>(r.u8());
  auto n = r.varint();
  res.values.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) res.values.push_back(r.str());
  return res;
}

std::vector<std::byte> KvStore::execute(std::span<const std::byte> command) {
  KvCommand cmd;
  try {
    cmd = KvCommand::decode(command);
  } catch (const CodecError&) {
    KvResult bad;
    bad.status = KvResult::Status::BadRequest;
    return bad.encode();
  }

  KvResult res;
  switch (cmd.op) {
    case KvOp::Get: {
      auto it = data_.find(cmd.key);
      if (it == data_.end()) {
        res.status = KvResult::Status::NotFound;
      } else {
        res.values.push_back(it->second);
      }
      break;
    }
    case KvOp::Put:
      data_[cmd.key] = cmd.value;
      break;
    case KvOp::Delete:
      if (data_.erase(cmd.key) == 0) res.status = KvResult::Status::NotFound;
      break;
    case KvOp::Scan: {
      auto it = data_.lower_bound(cmd.key);
      for (std::uint32_t i = 0; i < cmd.scan_len && it != data_.end(); ++i, ++it) {
        res.values.push_back(it->second);
      }
      break;
    }
    default:
      res.status = KvResult::Status::BadRequest;
  }
  return res.encode();
}

std::vector<std::byte> KvStore::snapshot() const {
  // A state transfer serializes the whole store; size the buffer up front so the
  // snapshot is a single allocation plus memcpy-sized appends (this showed up
  // at ~28% of the fig6 overload profile before).
  std::size_t estimate = 10;
  for (const auto& [key, value] : data_) estimate += key.size() + value.size() + 20;
  ByteWriter w;
  w.reserve(estimate);
  w.varint(data_.size());
  // std::map iteration is key-ordered, so equal states serialize equally.
  for (const auto& [key, value] : data_) {
    w.str(key);
    w.str(value);
  }
  return w.take();
}

void KvStore::restore(std::span<const std::byte> snapshot) {
  ByteReader r(snapshot);
  std::map<std::string, std::string, std::less<>> fresh;
  auto n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    auto key = r.str();
    auto value = r.str();
    // snapshot() writes keys in order, so each one belongs at the end: the
    // hint makes the insert amortised O(1). A misplaced key still lands
    // where it belongs, and a repeated one keeps its first value.
    fresh.emplace_hint(fresh.end(), std::move(key), std::move(value));
  }
  data_ = std::move(fresh);
}

Duration KvStore::execution_cost(std::span<const std::byte> command) const {
  Duration cost = costs_.base;
  // Only the size-dependent terms need the command decoded.
  if (costs_.ns_per_value_byte == 0.0 && costs_.per_scan_entry == 0) return cost;
  try {
    KvCommand cmd = KvCommand::decode(command);
    if (cmd.op == KvOp::Put) {
      cost += static_cast<Duration>(costs_.ns_per_value_byte *
                                    static_cast<double>(cmd.value.size()));
    } else if (cmd.op == KvOp::Scan) {
      cost += static_cast<Duration>(cmd.scan_len) * costs_.per_scan_entry;
    }
  } catch (const CodecError&) {
    // Malformed commands still pay the base cost.
  }
  return cost;
}

std::optional<std::string> KvStore::get(std::string_view key) const {
  auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

void KvStore::put(std::string key, std::string value) {
  data_[std::move(key)] = std::move(value);
}

}  // namespace idem::app
