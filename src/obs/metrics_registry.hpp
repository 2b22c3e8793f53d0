// The metrics registry, in sim and in real mode: named series that read
// the counters each component already keeps (a ReplicaStats field, a
// TransportStats field, a histogram the replica records). Registration may
// allocate.
//   - sample() appends one row of every series to a pre-reserved columnar
//     store, allocation-free; the simulator calls it on a simulated-time
//     tick (obs::MetricsTicker) and write_jsonl() dumps the rows;
//   - read() returns every series' current value; real mode's admin reads
//     each member's registry on the member's thread per scrape, merges the
//     reads (MetricsReading::merge) and windows them (obs::LiveMetrics).
// See docs/OBSERVABILITY.md for the series names and the JSONL format.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "common/reject_reason.hpp"
#include "common/time.hpp"

namespace idem::obs {

enum class SeriesKind : std::uint8_t {
  Counter,    ///< monotonic total: windowed into deltas and rates
  Gauge,      ///< point-in-time value
  Histogram,  ///< latency distribution: windowed into quantiles
};

/// The name of a per-reason reject counter, "rejects[reason=rt-queue-full]"
/// (the replica and the transport count different reasons in the family).
std::string reject_series(RejectReason reason);

/// `name` with `labels` ("group=0") first in its label set: "rejects[reason=x]"
/// becomes "rejects[group=0,reason=x]", "replies" becomes "replies[group=0]".
std::string with_labels(const std::string& name, const std::string& labels);

/// One read of every series of one or more registries.
struct MetricsReading {
  struct Scalar {
    std::string name;
    SeriesKind kind = SeriesKind::Counter;
    double value = 0;
  };
  std::vector<Scalar> scalars;  ///< counters and gauges, in registration order
  std::vector<std::pair<std::string, Histogram>> histograms;

  /// Folds `other` in by series name, its series labelled `labels` first:
  /// counters and histograms add up, gauges keep the larger value.
  void merge(const MetricsReading& other, const std::string& labels = "");
};

class MetricsRegistry {
 public:
  /// Reads a series' current value; must be pure observation (reading
  /// cluster state must not change the simulation trajectory).
  using ReadFn = std::function<double()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers a monotonic counter its component keeps.
  void add_counter(std::string name, ReadFn read) {
    series_.push_back(Series{std::move(name), SeriesKind::Counter, std::move(read), nullptr});
  }

  /// Registers a counter that is a plain field (borrowed: it must outlive
  /// the registry).
  void add_counter(std::string name, const std::uint64_t& field) {
    add_counter(std::move(name), [&field] { return static_cast<double>(field); });
  }
  void add_counter(std::string name, const std::uint64_t&& value) = delete;  // would dangle

  void add_gauge(std::string name, ReadFn read) {
    series_.push_back(Series{std::move(name), SeriesKind::Gauge, std::move(read), nullptr});
  }

  /// Registers a histogram its component records (borrowed: it must
  /// outlive the registry). A sample row holds its p50 in milliseconds.
  void add_histogram(std::string name, const Histogram& histogram) {
    series_.push_back(Series{std::move(name), SeriesKind::Histogram, nullptr, &histogram});
  }

  /// Pre-sizes the sample store for `rows` ticks so steady-state sampling
  /// never reallocates (the allocation budget in tests/alloc_test.cpp).
  void reserve_samples(std::size_t rows) {
    sample_times_.reserve(rows);
    sample_values_.reserve(rows * series_.size());
  }

  /// Takes one sample row of every registered series at time `now`.
  void sample(Time now) {
    sample_times_.push_back(now);
    for (const Series& s : series_) sample_values_.push_back(s.current());
  }

  /// Every series' current value, histograms copied whole.
  MetricsReading read() const;

  std::size_t series_count() const { return series_.size(); }
  const std::string& series_name(std::size_t i) const { return series_[i].name; }
  std::size_t rows() const { return sample_times_.size(); }
  Time row_time(std::size_t row) const { return sample_times_[row]; }
  double value(std::size_t row, std::size_t series) const {
    return sample_values_[row * series_.size() + series];
  }

  /// Current value of a series by name, as sample() would record it
  /// (last resort for tests; O(n)).
  double current(std::string_view name) const {
    for (const Series& s : series_) {
      if (s.name == name) return s.current();
    }
    return 0.0;
  }

  /// Writes every sample row as one JSON object per line:
  ///   {"t_ms":12.3,"r0.queue":4,...}
  void write_jsonl(std::FILE* out) const;

 private:
  struct Series {
    std::string name;
    SeriesKind kind = SeriesKind::Counter;
    ReadFn read;                            ///< counters and gauges
    const Histogram* histogram = nullptr;   ///< histograms
    double current() const { return histogram != nullptr ? to_ms(histogram->p50()) : read(); }
  };

  std::vector<Series> series_;
  std::vector<Time> sample_times_;
  std::vector<double> sample_values_;   ///< row-major [row][series]
};

}  // namespace idem::obs
