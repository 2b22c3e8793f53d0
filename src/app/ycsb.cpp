#include "app/ycsb.hpp"

#include <charconv>
#include <cmath>
#include <cstring>

namespace idem::app {

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta)
    : n_(n > 0 ? n : 1), theta_(theta) {
  zetan_ = zeta(n_, theta_);
  zeta2theta_ = zeta(2, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2theta_ / zetan_);
}

double ZipfianGenerator::zeta(std::uint64_t n, double theta) {
  double sum = 0;
  for (std::uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(static_cast<double>(i), theta);
  return sum;
}

std::uint64_t ZipfianGenerator::next(Rng& rng) {
  double u = rng.next_double();
  double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  auto idx = static_cast<std::uint64_t>(static_cast<double>(n_) *
                                        std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return idx >= n_ ? n_ - 1 : idx;
}

YcsbWorkload::YcsbWorkload(YcsbConfig config, Rng& rng)
    : config_(config),
      rng_(rng),
      zipf_(config.record_count),
      inserted_(config.record_count) {}

namespace {

/// "user" and the record's scrambled index, written into `buf`.
std::string_view write_key(std::uint64_t record, char (&buf)[24]) {
  // YCSB scrambles the record index so that zipfian-hot records spread
  // across the key space instead of clustering at the front. The full
  // 64-bit hash keeps collisions negligible.
  std::memcpy(buf, "user", 4);
  const auto written = std::to_chars(buf + 4, buf + sizeof buf, splitmix64(record));
  return {buf, static_cast<std::size_t>(written.ptr - buf)};
}

}  // namespace

std::string YcsbWorkload::key_for(std::uint64_t record) const {
  char buf[24];
  return std::string(write_key(record, buf));
}

std::vector<std::byte> YcsbWorkload::load_image(const YcsbConfig& config) {
  KvStore store;
  const std::string value(config.value_size, 'x');
  for (std::uint64_t i = 0; i < config.record_count; ++i) {
    char buf[24];
    store.put(write_key(i, buf), value);
  }
  return store.snapshot();
}

std::uint64_t YcsbWorkload::next_record() {
  switch (config_.distribution) {
    case KeyDistribution::Uniform:
      return static_cast<std::uint64_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(inserted_) - 1));
    case KeyDistribution::Latest: {
      // YCSB's "latest": zipfian over recency rank, anchored at the most
      // recently inserted record.
      std::uint64_t back = zipf_.next(rng_);
      if (back >= inserted_) back = inserted_ - 1;
      return inserted_ - 1 - back;
    }
    case KeyDistribution::Zipfian:
      break;
  }
  return zipf_.next(rng_);
}

std::string YcsbWorkload::random_value() {
  std::string value(config_.value_size, '\0');
  for (auto& c : value) {
    c = static_cast<char>('a' + rng_.uniform_int(0, 25));
  }
  return value;
}

KvCommand YcsbWorkload::next_operation() {
  double dice = rng_.next_double();
  KvCommand cmd;
  if (dice < config_.read_proportion) {
    cmd.op = KvOp::Get;
    cmd.key = key_for(next_record());
  } else if (dice < config_.read_proportion + config_.update_proportion) {
    cmd.op = KvOp::Put;
    cmd.key = key_for(next_record());
    cmd.value = random_value();
  } else if (dice < config_.read_proportion + config_.update_proportion +
                        config_.insert_proportion) {
    cmd.op = KvOp::Put;
    cmd.key = key_for(inserted_++);
    cmd.value = random_value();
  } else {
    cmd.op = KvOp::Scan;
    cmd.key = key_for(next_record());
    cmd.scan_len = static_cast<std::uint32_t>(
        rng_.uniform_int(1, static_cast<std::int64_t>(kMaxScanLen)));
  }
  return cmd;
}

}  // namespace idem::app
