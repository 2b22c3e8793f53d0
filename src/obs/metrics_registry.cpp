#include "obs/metrics_registry.hpp"

#include <algorithm>
#include <cmath>

#include "common/json.hpp"

namespace idem::obs {

namespace {

void write_json_number(std::FILE* out, double v) {
  if (!std::isfinite(v)) {
    std::fputs("null", out);  // JSON has no NaN/Inf
    return;
  }
  // Counters dominate; print integral values without an exponent.
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    std::fprintf(out, "%lld", static_cast<long long>(v));
  } else {
    std::fprintf(out, "%.9g", v);
  }
}

}  // namespace

std::string reject_series(RejectReason reason) {
  return std::string("rejects[reason=") + to_label(reason) + "]";
}

std::string with_labels(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  const auto bracket = name.find('[');
  if (bracket == std::string::npos) return name + "[" + labels + "]";
  return name.substr(0, bracket + 1) + labels + "," + name.substr(bracket + 1);
}

void MetricsReading::merge(const MetricsReading& other, const std::string& labels) {
  for (const Scalar& s : other.scalars) {
    const std::string name = with_labels(s.name, labels);
    auto it = std::find_if(scalars.begin(), scalars.end(),
                           [&name](const Scalar& mine) { return mine.name == name; });
    if (it == scalars.end()) {
      scalars.push_back(Scalar{name, s.kind, s.value});
    } else {
      it->value = s.kind == SeriesKind::Gauge ? std::max(it->value, s.value) : it->value + s.value;
    }
  }
  for (const auto& [hist_name, hist] : other.histograms) {
    const std::string name = with_labels(hist_name, labels);
    auto it = std::find_if(histograms.begin(), histograms.end(),
                           [&name](const auto& mine) { return mine.first == name; });
    if (it == histograms.end()) {
      histograms.emplace_back(name, hist);
    } else {
      it->second.merge(hist);
    }
  }
}

MetricsReading MetricsRegistry::read() const {
  MetricsReading reading;
  for (const Series& s : series_) {
    if (s.histogram != nullptr) {
      reading.histograms.emplace_back(s.name, *s.histogram);
    } else {
      reading.scalars.push_back(MetricsReading::Scalar{s.name, s.kind, s.read()});
    }
  }
  return reading;
}

void MetricsRegistry::write_jsonl(std::FILE* out) const {
  const std::size_t cols = series_.size();
  std::string name;
  for (std::size_t row = 0; row < sample_times_.size(); ++row) {
    std::fputs("{\"t_ms\":", out);
    write_json_number(out, to_ms(sample_times_[row]));
    for (std::size_t col = 0; col < cols; ++col) {
      name.clear();
      json::escape_string(series_[col].name, name);
      std::fputc(',', out);
      std::fputs(name.c_str(), out);
      std::fputc(':', out);
      write_json_number(out, sample_values_[row * cols + col]);
    }
    std::fputs("}\n", out);
  }
}

}  // namespace idem::obs
