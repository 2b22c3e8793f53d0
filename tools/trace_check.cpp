// trace-check: validates a Chrome trace-event JSON file produced by
// idem-load --trace-out (or any src/obs/chrome_trace.cpp output).
//
//   trace-check trace.json [--min-requests N]
//   trace-check --metrics metrics.jsonl
//
// Trace checks, in order:
//   1. the file is well-formed JSON (common/json.hpp),
//   2. the root object has a "traceEvents" array whose entries carry the
//      fields Perfetto needs (ph/pid/tid/ts, plus cat/id/name for async
//      events),
//   3. async begins and ends balance per (cat, id) key — never negative,
//      all closed at end of file,
//   4. "rejected" / "reject_seen" instants carry a rejection reason from
//      the taxonomy (a replica's own verdict is never "none"; a client may
//      see "none" from a reason-less REJECT),
//   5. at least --min-requests distinct "request" lifecycle spans exist.
//
// --metrics instead validates a metrics JSONL export (obs sampling, bench
// IDEM_BENCH_METRICS_OUT): every line a JSON object with a non-decreasing
// numeric "t_ms" and numeric (or null) series values.
//
// Exit code 0 on success, 1 on validation failure, 2 on usage/IO errors.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>

#include "common/json.hpp"
#include "common/reject_reason.hpp"

namespace {

using idem::json::Type;
using idem::json::Value;

bool known_reason(const std::string& label) {
  for (std::size_t r = 0; r < static_cast<std::size_t>(idem::RejectReason::Count); ++r) {
    if (label == idem::to_label(static_cast<idem::RejectReason>(r))) return true;
  }
  return false;
}

/// `object[key]` when it is present and of type `type`, else nullptr.
const Value* member(const Value& object, const char* key, Type type) {
  const Value* value = object.find(key);
  return value != nullptr && value->type() == type ? value : nullptr;
}

// ---------------------------------------------------------------------------
// Trace-level validation.

int validate(const Value& root, std::size_t min_requests) {
  if (root.type() != Type::ObjectT) {
    std::fprintf(stderr, "FAIL: root is not an object\n");
    return 1;
  }
  const Value* events = member(root, "traceEvents", Type::ArrayT);
  if (events == nullptr) {
    std::fprintf(stderr, "FAIL: missing \"traceEvents\" array\n");
    return 1;
  }

  // open count per async key "cat\x1fid"; request ids seen via begin events.
  std::map<std::string, long> open;
  std::map<std::string, std::size_t> span_names;
  std::size_t begins = 0, ends = 0, instants = 0, metadata = 0, requests = 0;
  double last_ts = -1;

  const idem::json::Array& array = events->as_array();
  for (std::size_t i = 0; i < array.size(); ++i) {
    const Value& ev = array[i];
    auto complain = [&](const char* what) {
      std::fprintf(stderr, "FAIL: traceEvents[%zu]: %s\n", i, what);
      return 1;
    };
    if (ev.type() != Type::ObjectT) return complain("not an object");
    const Value* ph = member(ev, "ph", Type::String);
    if (ph == nullptr || ph->as_string().size() != 1) return complain("missing \"ph\"");
    char phase = ph->as_string()[0];
    if (phase == 'M') { ++metadata; continue; }
    if (phase != 'b' && phase != 'e' && phase != 'n') return complain("unexpected phase");

    const Value* cat = member(ev, "cat", Type::String);
    const Value* id = member(ev, "id", Type::String);
    const Value* name = member(ev, "name", Type::String);
    const Value* ts = member(ev, "ts", Type::Number);
    if (cat == nullptr) return complain("missing \"cat\"");
    if (id == nullptr) return complain("missing \"id\"");
    if (name == nullptr) return complain("missing \"name\"");
    if (ts == nullptr || ts->as_double() < 0) return complain("missing or negative \"ts\"");
    if (member(ev, "pid", Type::Number) == nullptr || member(ev, "tid", Type::Number) == nullptr) {
      return complain("missing \"pid\"/\"tid\"");
    }
    last_ts = std::max(last_ts, ts->as_double());

    const std::string& label = name->as_string();
    std::string key = cat->as_string() + '\x1f' + id->as_string();
    if (phase == 'b') {
      ++begins;
      if (++open[key] > 1) return complain("duplicate begin for an open async id");
      ++span_names[label];
      if (label == "request") ++requests;
    } else if (phase == 'e') {
      ++ends;
      auto it = open.find(key);
      if (it == open.end() || it->second <= 0) return complain("end without matching begin");
      --it->second;
    } else {
      ++instants;
      if (label == "rejected" || label == "reject_seen") {
        const Value* args = member(ev, "args", Type::ObjectT);
        const Value* reason = args != nullptr ? member(*args, "reason", Type::String) : nullptr;
        if (reason == nullptr || !known_reason(reason->as_string())) {
          return complain("rejection instant without a taxonomy reason");
        }
        // A replica recording its own verdict always knows why; only a
        // client facing a reason-less (legacy) REJECT may see "none".
        if (label == "rejected" && reason->as_string() == "none") {
          return complain("\"rejected\" verdict with reason \"none\"");
        }
      }
    }
  }

  std::size_t unclosed = 0;
  for (const auto& [key, depth] : open) {
    if (depth != 0) ++unclosed;
  }
  if (unclosed != 0) {
    std::fprintf(stderr, "FAIL: %zu async spans left open at end of trace\n", unclosed);
    return 1;
  }
  if (begins != ends) {
    std::fprintf(stderr, "FAIL: %zu begins vs %zu ends\n", begins, ends);
    return 1;
  }
  if (requests < min_requests) {
    std::fprintf(stderr, "FAIL: %zu request spans, expected at least %zu\n", requests,
                 min_requests);
    return 1;
  }

  std::printf("OK: %zu events (%zu spans, %zu instants, %zu metadata), last ts %.3f us\n",
              array.size(), begins, instants, metadata, last_ts);
  for (const auto& [name, count] : span_names) {
    std::printf("  %-12s %zu\n", name.c_str(), count);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Metrics JSONL validation (--metrics).

int validate_metrics(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 2;
  }
  std::string line;
  std::size_t lineno = 0, rows = 0, columns = 0;
  double last_t = -1;
  int c;
  while (true) {
    c = std::fgetc(f);
    if (c != EOF && c != '\n') {
      line.push_back(static_cast<char>(c));
      continue;
    }
    ++lineno;
    if (!line.empty()) {
      auto complain = [&](const char* what) {
        std::fprintf(stderr, "FAIL: %s:%zu: %s\n", path, lineno, what);
        std::fclose(f);
        return 1;
      };
      Value row;
      try {
        row = Value::parse(line);
      } catch (const idem::json::ParseError& e) {
        return complain(e.what());
      }
      if (row.type() != Type::ObjectT) return complain("line is not a JSON object");
      const Value* t = member(row, "t_ms", Type::Number);
      if (t == nullptr) return complain("missing numeric \"t_ms\"");
      if (t->as_double() < last_t) return complain("\"t_ms\" went backwards");
      last_t = t->as_double();
      for (const auto& [key, value] : row.as_object()) {
        if (value.type() != Type::Number && !value.is_null()) {
          return complain("non-numeric series value");
        }
      }
      columns = std::max(columns, row.as_object().size() - 1);
      ++rows;
      line.clear();
    }
    if (c == EOF) break;
  }
  std::fclose(f);
  if (rows == 0) {
    std::fprintf(stderr, "FAIL: %s: no samples\n", path);
    return 1;
  }
  std::printf("OK: %zu samples, %zu series, last t %.1f ms\n", rows, columns, last_t);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  std::size_t min_requests = 0;
  bool metrics = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--min-requests") && i + 1 < argc) {
      min_requests = std::strtoul(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--metrics")) {
      metrics = true;
    } else if (argv[i][0] != '-' && path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: %s <trace.json> [--min-requests N]\n"
                   "       %s --metrics <metrics.jsonl>\n",
                   argv[0], argv[0]);
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: %s <trace.json> [--min-requests N]\n"
                 "       %s --metrics <metrics.jsonl>\n",
                 argv[0], argv[0]);
    return 2;
  }
  if (metrics) return validate_metrics(path);

  std::optional<Value> root;
  try {
    root = Value::parse_file(path);
  } catch (const idem::json::ParseError& e) {
    std::fprintf(stderr, "FAIL: JSON parse error: %s\n", e.what());
    return 1;
  }
  if (!root.has_value()) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 2;
  }
  return validate(*root, min_requests);
}
