// YCSB-style workload generator (Cooper et al., SoCC '10).
//
// Reproduces the benchmark setup of the paper's evaluation (Section 7.1):
// an update-heavy workload against a replicated key-value store. Provides
// the classic zipfian request-key distribution with the YCSB scrambling,
// plus the standard workload mixes (A = update-heavy is the default).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "common/rng.hpp"

namespace idem::app {

/// Zipfian integer generator over [0, n) with parameter theta (0.99 in
/// YCSB), using the Gray et al. rejection-free method that YCSB uses.
class ZipfianGenerator {
 public:
  ZipfianGenerator(std::uint64_t n, double theta = 0.99);

  std::uint64_t next(Rng& rng);

 private:
  static double zeta(std::uint64_t n, double theta);

  std::uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
  double zeta2theta_;
};

/// Distribution of request keys across the key space. `Latest` skews
/// toward recently inserted records (YCSB workload D).
enum class KeyDistribution : std::uint8_t { Zipfian, Uniform, Latest };

struct YcsbConfig {
  std::uint64_t record_count = 10'000;
  std::size_t value_size = 100;       ///< bytes per field (YCSB default: 10x100B; we use one field)
  double read_proportion = 0.5;       ///< YCSB-A: 50% reads
  double update_proportion = 0.5;     ///< YCSB-A: 50% updates
  double insert_proportion = 0.0;
  double scan_proportion = 0.0;
  KeyDistribution distribution = KeyDistribution::Zipfian;  ///< zipfian with theta 0.99

  /// The paper's workload: update-heavy YCSB-A (50/50 read/update).
  static YcsbConfig update_heavy() { return YcsbConfig{}; }
  /// YCSB-B: 95/5 read/update.
  static YcsbConfig read_heavy() {
    YcsbConfig c;
    c.read_proportion = 0.95;
    c.update_proportion = 0.05;
    return c;
  }
  /// YCSB-C: read only.
  static YcsbConfig read_only() {
    YcsbConfig c;
    c.read_proportion = 1.0;
    c.update_proportion = 0.0;
    return c;
  }
  /// YCSB-D: read latest (95/5 read/insert, reads skewed to new records).
  static YcsbConfig read_latest() {
    YcsbConfig c;
    c.read_proportion = 0.95;
    c.update_proportion = 0.0;
    c.insert_proportion = 0.05;
    c.distribution = KeyDistribution::Latest;
    return c;
  }
  /// YCSB-E: short scans (95/5 scan/insert).
  static YcsbConfig scan_heavy() {
    YcsbConfig c;
    c.read_proportion = 0.0;
    c.update_proportion = 0.0;
    c.insert_proportion = 0.05;
    c.scan_proportion = 0.95;
    return c;
  }
};

class YcsbWorkload {
 public:
  YcsbWorkload(YcsbConfig config, Rng& rng);

  /// The key of record `i` ("user" + scrambled index, as in YCSB).
  std::string key_for(std::uint64_t record) const;

  /// The store the load phase of `config` leaves behind, as a KvStore
  /// snapshot: every record once, keys in order. Replicas restore it before
  /// the run. It depends on nothing but the record count and value size.
  static std::vector<std::byte> load_image(const YcsbConfig& config);

  /// Draws the next operation of the run phase.
  KvCommand next_operation();

  const YcsbConfig& config() const { return config_; }

  /// A Scan reads between 1 and kMaxScanLen records, uniformly.
  static constexpr std::uint32_t kMaxScanLen = 100;

 private:
  std::uint64_t next_record();
  std::string random_value();

  YcsbConfig config_;
  Rng& rng_;
  ZipfianGenerator zipf_;
  std::uint64_t inserted_;  // grows with inserts
};

}  // namespace idem::app
