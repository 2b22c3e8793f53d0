// bench-compare: diffs a freshly produced benchmark JSON against a
// committed baseline and fails on regressions beyond a tolerance.
//
//   bench_compare --baseline BENCH_real.json --fresh /tmp/fresh.json
//                 [--tolerance 0.10] [--label real]
//
// Works on any of the repo's benchmark emissions (BENCH_real.json,
// BENCH_simcore.json, BENCH_deadline.json): both documents are walked in
// parallel and every numeric leaf present in both is compared. Array
// entries are matched positionally, except arrays of objects carrying a
// "clients" field (the sweep shape), which are matched by that key so
// adding or reordering sweep points does not misalign the comparison.
//
// Which direction is "worse" is inferred from the metric name:
//   higher is better:  *kops*, *per_sec*, *rate*        (throughput)
//   lower is better:   p50_ms, mean_ms                  (stable latencies)
//   informational:     everything else — printed, never gated. This
//     includes tail percentiles (p90/p99: too noisy for a 10% gate on a
//     shared machine), reject_* (the reject rate tracks offered load, not
//     quality), and configuration echoes like "clients" or "n".
// Baselines below an absolute floor are also not gated: the relative
// error on a near-zero value is meaningless.
//
// --throughput-only demotes the lower-is-better latency metrics to
// informational too. Wall-clock benches on a shared machine inflate
// absolute latency by tens of percent whenever the host is contended,
// while throughput at saturation is far steadier — so the real-mode
// gate checks only throughput and leaves latency shape assertions to
// the bench binary itself.
//
// --gate-tails promotes p999_ms and miss_pct to lower-is-better. The
// deadline-admission sweep (BENCH_deadline.json) exists to pin a tail
// and a miss-rate win, so its gate must fail when either regresses —
// the sweep runs in the deterministic sim harness, where tail
// percentiles repeat run to run and the usual noise argument does not
// apply.
//
// --peak KEY compares a single number instead of every leaf: the maximum
// of the numeric leaves named KEY in each document (higher is better).
// Point-by-point diffs are too noisy for a tight tolerance — a sweep's
// individual points wander several percent run to run while the peak
// (the saturated plateau) is steady — so overhead guards like the
// live-telemetry <=2% check gate on the peak alone.
//
// Exit code 0 when no gated metric regressed, 1 on regression (or a
// metric missing from the fresh run), 2 on usage/IO/parse errors.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/json.hpp"

using idem::json::Type;
using idem::json::Value;

namespace {

enum class Direction { HigherIsBetter, LowerIsBetter, Informational };

bool contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

bool g_throughput_only = false;
bool g_gate_tails = false;

Direction direction_of(const std::string& key) {
  // Reject-side metrics track offered load and client patience, not
  // server quality — a faster server rejects *less*. Never gate them.
  if (contains(key, "reject")) return Direction::Informational;
  if (g_gate_tails && (key == "p999_ms" || key == "miss_pct")) {
    return Direction::LowerIsBetter;
  }
  if (contains(key, "kops") || contains(key, "per_sec") || contains(key, "rate")) {
    return Direction::HigherIsBetter;
  }
  if (key == "p50_ms" || key == "mean_ms") {
    return g_throughput_only ? Direction::Informational : Direction::LowerIsBetter;
  }
  return Direction::Informational;
}

/// Relative values this small carry no meaningful relative error.
constexpr double kAbsoluteFloor = 0.05;

struct Report {
  double tolerance = 0.10;
  std::size_t compared = 0;  ///< gated metrics that were checked
  std::size_t failed = 0;
  std::size_t missing = 0;   ///< gated baseline metrics absent from fresh

  void leaf(const std::string& path, const std::string& key, double base, double fresh) {
    const Direction dir = direction_of(key);
    const bool gated = dir != Direction::Informational && std::fabs(base) >= kAbsoluteFloor;
    double delta = 0;
    if (std::fabs(base) > 0) delta = (fresh - base) / std::fabs(base);
    bool bad = false;
    if (gated) {
      ++compared;
      bad = dir == Direction::HigherIsBetter ? delta < -tolerance : delta > tolerance;
      if (bad) ++failed;
    }
    std::printf("  %-4s %-40s %12.4f -> %12.4f  (%+.1f%%)\n",
                bad ? "FAIL" : (gated ? "ok" : "info"), path.c_str(), base, fresh,
                delta * 100.0);
  }

  void absent(const std::string& path, const std::string& key) {
    if (direction_of(key) == Direction::Informational) return;
    ++missing;
    std::printf("  FAIL %-40s missing from fresh run\n", path.c_str());
  }
};

/// Maximum over every numeric leaf named `key`, at any depth.
double max_leaf(const Value& value, const char* key, bool& found) {
  double best = 0;
  if (value.type() == Type::ObjectT) {
    for (const auto& [k, v] : value.as_object()) {
      if (k == key && v.type() == Type::Number) {
        if (!found || v.as_double() > best) best = v.as_double();
        found = true;
      } else {
        bool sub_found = false;
        double sub = max_leaf(v, key, sub_found);
        if (sub_found && (!found || sub > best)) best = sub;
        found = found || sub_found;
      }
    }
  } else if (value.type() == Type::ArrayT) {
    for (const Value& entry : value.as_array()) {
      bool sub_found = false;
      double sub = max_leaf(entry, key, sub_found);
      if (sub_found && (!found || sub > best)) best = sub;
      found = found || sub_found;
    }
  }
  return best;
}

std::string point_key(const Value& entry) {
  const Value* clients = entry.find("clients");
  if (clients == nullptr || clients->type() != Type::Number) return {};
  return "clients=" + std::to_string(clients->as_int());
}

void walk(const std::string& path, const std::string& key, const Value& base,
          const Value* fresh, Report& report) {
  if (base.type() == Type::Number) {
    if (fresh == nullptr || fresh->type() != Type::Number) {
      report.absent(path, key);
    } else {
      report.leaf(path, key, base.as_double(), fresh->as_double());
    }
    return;
  }
  if (base.type() == Type::ObjectT) {
    for (const auto& [k, v] : base.as_object()) {
      walk(path.empty() ? k : path + "." + k, k, v, fresh != nullptr ? fresh->find(k) : nullptr,
           report);
    }
    return;
  }
  if (base.type() == Type::ArrayT) {
    const idem::json::Array& entries = base.as_array();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const Value& entry = entries[i];
      const Value* twin = nullptr;
      std::string label = point_key(entry);
      if (fresh != nullptr && fresh->type() == Type::ArrayT) {
        const idem::json::Array& candidates = fresh->as_array();
        if (!label.empty()) {
          for (const Value& candidate : candidates) {
            if (point_key(candidate) == label) { twin = &candidate; break; }
          }
        } else if (i < candidates.size()) {
          twin = &candidates[i];
          label = "[" + std::to_string(i) + "]";
        }
      }
      if (label.empty()) label = "[" + std::to_string(i) + "]";
      walk(path + "." + label, key, entry, twin, report);
    }
    return;
  }
  // Strings/bools/nulls (bench names, modes) are identification, not data.
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* fresh_path = nullptr;
  const char* label = nullptr;
  const char* peak_key = nullptr;
  double tolerance = 0.10;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (!std::strcmp(argv[i], "--baseline")) {
      baseline_path = value();
    } else if (!std::strcmp(argv[i], "--fresh")) {
      fresh_path = value();
    } else if (!std::strcmp(argv[i], "--tolerance")) {
      if (const char* v = value()) tolerance = std::atof(v);
    } else if (!std::strcmp(argv[i], "--label")) {
      label = value();
    } else if (!std::strcmp(argv[i], "--throughput-only")) {
      g_throughput_only = true;
    } else if (!std::strcmp(argv[i], "--gate-tails")) {
      g_gate_tails = true;
    } else if (!std::strcmp(argv[i], "--peak")) {
      peak_key = value();
    } else {
      baseline_path = nullptr;
      break;
    }
  }
  if (baseline_path == nullptr || fresh_path == nullptr || tolerance <= 0) {
    std::fprintf(stderr,
                 "usage: %s --baseline FILE --fresh FILE [--tolerance T] [--label NAME]\n"
                 "       [--throughput-only] [--gate-tails] [--peak KEY]\n"
                 "fails (exit 1) when a throughput metric drops, or a gated latency\n"
                 "metric rises, by more than T (default 0.10) relative to baseline;\n"
                 "--throughput-only gates throughput metrics alone; --peak KEY gates\n"
                 "only the maximum of the numeric leaves named KEY (higher is better)\n",
                 argv[0]);
    return 2;
  }

  auto load = [argv](const char* path) -> std::optional<Value> {
    try {
      std::optional<Value> document = Value::parse_file(path);
      if (!document.has_value()) std::fprintf(stderr, "%s: %s: cannot open file\n", argv[0], path);
      return document;
    } catch (const idem::json::ParseError& e) {
      std::fprintf(stderr, "%s: %s: parse error: %s\n", argv[0], path, e.what());
      return std::nullopt;
    }
  };
  const std::optional<Value> baseline = load(baseline_path);
  if (!baseline.has_value()) return 2;
  const std::optional<Value> fresh = load(fresh_path);
  if (!fresh.has_value()) return 2;

  if (peak_key != nullptr) {
    bool base_found = false, fresh_found = false;
    double base_peak = max_leaf(*baseline, peak_key, base_found);
    double fresh_peak = max_leaf(*fresh, peak_key, fresh_found);
    if (!base_found || !fresh_found) {
      std::fprintf(stderr, "%s: no numeric leaf named \"%s\" in %s\n", argv[0], peak_key,
                   base_found ? fresh_path : baseline_path);
      return 2;
    }
    double delta = base_peak != 0 ? (fresh_peak - base_peak) / std::fabs(base_peak) : 0;
    bool bad = delta < -tolerance;
    std::printf("bench_compare%s%s: peak %s %.4f -> %.4f (%+.2f%%, tolerance %.1f%%)\n",
                label != nullptr ? " " : "", label != nullptr ? label : "", peak_key,
                base_peak, fresh_peak, delta * 100.0, tolerance * 100.0);
    std::printf(bad ? "REGRESSION: peak dropped beyond tolerance\n" : "PASS\n");
    return bad ? 1 : 0;
  }

  std::printf("bench_compare%s%s: %s vs %s (tolerance %.0f%%)\n", label != nullptr ? " " : "",
              label != nullptr ? label : "", baseline_path, fresh_path, tolerance * 100.0);
  Report report;
  report.tolerance = tolerance;
  walk("", "", *baseline, &*fresh, report);

  if (report.failed > 0 || report.missing > 0) {
    std::printf("REGRESSION: %zu of %zu gated metrics beyond -%.0f%%, %zu missing\n",
                report.failed, report.compared, tolerance * 100.0, report.missing);
    return 1;
  }
  std::printf("PASS: %zu gated metrics within %.0f%% of baseline\n", report.compared,
              tolerance * 100.0);
  return 0;
}
