// Shared pieces of the CLIs (idem_server, idem_client, storm_client):
// argv option-value scanning, checked number parsing, replica-address
// collection, YCSB workload lookup by letter, and the throughput/latency
// report block. Header-only on purpose — these are small mains and a
// library target would outweigh the code.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <system_error>
#include <type_traits>

#include "app/ycsb.hpp"
#include "harness/metrics.hpp"
#include "rpc/tcp_transport.hpp"

namespace idem::cli {

/// Scans the value of a "--flag VALUE" option: advances `i` past the
/// value and returns it, or nullptr when the flag is last on the line
/// (the caller bails to usage()).
inline const char* next_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) return nullptr;
  return argv[++i];
}

/// Parses all of `text` as a decimal T in [min, max] (no blanks, no sign
/// on unsigned types), printing the usage error on failure.
template <typename T>
std::optional<T> parse_number(const char* argv0, const char* flag, const char* text,
                              std::type_identity_t<T> min = std::numeric_limits<T>::lowest(),
                              std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [stop, error] = std::from_chars(text, end, value);
  // Written so that NaN fails the range check.
  if (error == std::errc{} && stop == end && value >= min && value <= max) return value;
  std::fprintf(stderr, "%s: bad %s value '%s'\n", argv0, flag, text);
  return std::nullopt;
}

/// Scans the value of a numeric "--flag VALUE" option into `out` (see
/// parse_number). False when the value is missing or bad.
template <typename T>
bool next_number(int argc, char** argv, int& i, T& out,
                 std::type_identity_t<T> min = std::numeric_limits<T>::lowest(),
                 std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
  const char* flag = argv[i];
  const char* text = next_value(argc, argv, i);
  if (text == nullptr) return false;
  const std::optional<T> value = parse_number<T>(argv[0], flag, text, min, max);
  if (value.has_value()) out = *value;
  return value.has_value();
}

/// Parses one --replica operand, printing the usage error on failure.
inline std::optional<rpc::PeerAddress> parse_replica(const char* argv0, const char* text) {
  auto address = rpc::parse_address(text);
  if (!address.has_value()) {
    std::fprintf(stderr, "%s: bad --replica address '%s'\n", argv0, text);
  }
  return address;
}

/// YCSB workload presets by their customary letter names.
inline std::optional<app::YcsbConfig> workload_by_name(const std::string& name) {
  if (name == "a") return app::YcsbConfig::update_heavy();
  if (name == "b") return app::YcsbConfig::read_heavy();
  if (name == "c") return app::YcsbConfig::read_only();
  return std::nullopt;
}

/// Whole-file read (shard map files); nullopt with a message on failure.
inline std::optional<std::string> read_file(const char* argv0, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot read %s\n", argv0, path.c_str());
    return std::nullopt;
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

/// One "p50 .. | p90 .. | p99 .. | p99.9 .." percentile line.
inline void print_percentile_line(const char* label, const Histogram& h) {
  std::printf("  %-11s: p50 %.3f ms | p90 %.3f ms | p99 %.3f ms | p99.9 %.3f ms\n",
              label, to_ms(h.p50()), to_ms(h.p90()), to_ms(h.p99()), to_ms(h.p999()));
}

/// The standard end-of-run report of a load driver run: throughput,
/// outcome counts, reply and rejection latency percentiles.
inline void print_load_report(const harness::RunMetrics& stats) {
  std::printf("\n  throughput : %8.1f replies/s, %8.1f rejects/s\n",
              stats.reply_throughput(), stats.reject_throughput());
  std::printf("  outcomes   : %llu replies, %llu rejects, %llu timeouts"
              " (%llu issued, %llu malformed)\n",
              static_cast<unsigned long long>(stats.replies),
              static_cast<unsigned long long>(stats.rejects),
              static_cast<unsigned long long>(stats.timeouts),
              static_cast<unsigned long long>(stats.issued),
              static_cast<unsigned long long>(stats.malformed));
  if (stats.deferred > 0) {
    std::printf("  open loop  : %llu arrivals deferred behind a busy client\n",
                static_cast<unsigned long long>(stats.deferred));
  }
  if (stats.deadline_ops > 0) {
    std::printf("  deadlines  : %llu/%llu replies missed their budget (%.2f%%)\n",
                static_cast<unsigned long long>(stats.deadline_misses),
                static_cast<unsigned long long>(stats.deadline_ops),
                100.0 * stats.deadline_miss_rate());
  }
  if (stats.replies > 0) print_percentile_line("latency", stats.reply_latency);
  if (stats.rejects > 0) {
    std::printf("  rejections : p50 %.3f ms | p99 %.3f ms\n",
                to_ms(stats.reject_latency.p50()), to_ms(stats.reject_latency.p99()));
  }
}

}  // namespace idem::cli
