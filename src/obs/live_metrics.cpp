#include "obs/live_metrics.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace idem::obs {

namespace {

/// Splits "rejects[reason=rt-queue-full]" into a sanitized metric name and
/// an optional label clause; plain names pass through.
struct PromName {
  std::string metric;
  std::string labels;  ///< rendered as-is, e.g. `{reason="rt-queue-full"}`
};

std::string sanitize(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '_';
    if (!ok) c = '_';
  }
  return out;
}

PromName prom_name(const std::string& name) {
  PromName out;
  auto bracket = name.find('[');
  if (bracket == std::string::npos || name.back() != ']') {
    out.metric = "idem_" + sanitize(name);
    return out;
  }
  out.metric = "idem_" + sanitize(name.substr(0, bracket));
  // Comma-separated label clauses: "rejects[group=0,reason=wrong-shard]"
  // renders as {group="0",reason="wrong-shard"} (sharded deployments stack
  // a group label on top of the per-reason ones).
  std::string clauses = name.substr(bracket + 1, name.size() - bracket - 2);
  out.labels = "{";
  std::size_t pos = 0;
  while (pos <= clauses.size()) {
    auto comma = clauses.find(',', pos);
    std::string clause =
        clauses.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (out.labels.size() > 1) out.labels += ",";
    auto eq = clause.find('=');
    out.labels += sanitize(clause.substr(0, eq)) + "=\"" + clause.substr(eq + 1) + "\"";
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  out.labels += "}";
  return out;
}

void append_f(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

}  // namespace

LiveMetrics::LiveMetrics() : prev_at_(std::chrono::steady_clock::now()) {}

LiveSnapshot LiveMetrics::snapshot(MetricsReading reading) {
  const auto now = std::chrono::steady_clock::now();
  // Sub-millisecond windows (back-to-back scrapes) would turn rates into
  // noise; clamp the divisor, never the data.
  double elapsed = std::chrono::duration<double>(now - prev_at_).count();
  double divisor = std::max(elapsed, 1e-3);

  LiveSnapshot snap;
  snap.window_seconds = elapsed;
  for (const MetricsReading::Scalar& s : reading.scalars) {
    if (s.kind == SeriesKind::Gauge) {
      snap.gauges.push_back(s);
      continue;
    }
    LiveSnapshot::Counter c;
    c.name = s.name;
    c.total = static_cast<std::uint64_t>(s.value);
    std::uint64_t before = 0;
    auto prev = std::find_if(prev_.scalars.begin(), prev_.scalars.end(),
                             [&s](const auto& p) { return p.name == s.name; });
    if (prev != prev_.scalars.end()) before = static_cast<std::uint64_t>(prev->value);
    c.window = c.total > before ? c.total - before : 0;
    c.rate = static_cast<double>(c.window) / divisor;
    snap.counters.push_back(std::move(c));
  }
  for (const auto& [name, hist] : reading.histograms) {
    LiveSnapshot::Latency l;
    l.name = name;
    l.total_count = hist.count();
    Histogram window = hist;
    auto prev = std::find_if(prev_.histograms.begin(), prev_.histograms.end(),
                             [&l](const auto& p) { return p.first == l.name; });
    if (prev != prev_.histograms.end()) window = hist.delta(prev->second);
    l.window_count = window.count();
    l.rate = static_cast<double>(l.window_count) / divisor;
    l.p50 = window.p50();
    l.p99 = window.p99();
    l.p999 = window.p999();
    l.mean_ns = window.mean();
    snap.latencies.push_back(std::move(l));
  }

  prev_ = std::move(reading);
  prev_at_ = now;
  return snap;
}

std::string LiveMetrics::render_prometheus(const LiveSnapshot& snap) {
  std::string out;
  append_f(out, "# TYPE idem_window_seconds gauge\n");
  append_f(out, "idem_window_seconds %.6f\n", snap.window_seconds);
  for (const auto& c : snap.counters) {
    PromName p = prom_name(c.name);
    append_f(out, "%s_total%s %llu\n", p.metric.c_str(), p.labels.c_str(),
             static_cast<unsigned long long>(c.total));
    append_f(out, "%s_rate%s %.3f\n", p.metric.c_str(), p.labels.c_str(), c.rate);
  }
  for (const auto& g : snap.gauges) {
    PromName p = prom_name(g.name);
    append_f(out, "%s%s %.9g\n", p.metric.c_str(), p.labels.c_str(), g.value);
  }
  for (const auto& l : snap.latencies) {
    PromName p = prom_name(l.name);
    append_f(out, "%s_rate%s %.3f\n", p.metric.c_str(), p.labels.c_str(), l.rate);
    const std::pair<const char*, double> quantiles[] = {
        {"p50", static_cast<double>(l.p50)},
        {"p99", static_cast<double>(l.p99)},
        {"p999", static_cast<double>(l.p999)},
        {"mean", l.mean_ns}};
    for (const auto& [stat, ns] : quantiles) {
      append_f(out, "%s_%s_seconds%s %.9f\n", p.metric.c_str(), stat, p.labels.c_str(), ns / 1e9);
    }
  }
  return out;
}

json::Value LiveMetrics::render_json(const LiveSnapshot& snap) {
  json::Object counters;
  for (const auto& c : snap.counters) {
    counters[c.name] = json::Object{{"total", c.total}, {"window", c.window}, {"rate", c.rate}};
  }
  json::Object gauges;
  for (const auto& g : snap.gauges) gauges[g.name] = g.value;
  json::Object latencies;
  for (const auto& l : snap.latencies) {
    latencies[l.name] = json::Object{{"window_count", l.window_count}, {"rate", l.rate},
                                     {"p50_ms", to_ms(l.p50)}, {"p99_ms", to_ms(l.p99)},
                                     {"p999_ms", to_ms(l.p999)}, {"mean_ms", to_ms(l.mean_ns)}};
  }
  return json::Object{{"window_seconds", snap.window_seconds},
                      {"counters", std::move(counters)},
                      {"gauges", std::move(gauges)},
                      {"latencies", std::move(latencies)}};
}

}  // namespace idem::obs
