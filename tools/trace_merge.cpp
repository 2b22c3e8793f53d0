// trace_merge: stitch per-process Chrome trace exports into one timeline.
//
// A multi-process deployment (N idem_server processes + idem_client)
// exports one trace document per process, each with timestamps relative
// to its own epoch. Every real-mode export carries its CLOCK_REALTIME
// anchor in otherData.realtime_anchor_ns (the wall-clock instant of its
// trace time 0), so the documents can be aligned: the earliest anchor
// becomes the merged origin and every other document's events shift
// forward by its anchor delta. The result is a single Perfetto-loadable
// document where a request's client→leader→follower path reads across
// process tracks on one clock.
//
// Track identity is preserved: each process records only its own node's
// events (server i uses pid i, clients use the client address base), so
// pids stay disjoint; process_name metadata is prefixed with the source
// process label for disambiguation in the UI.
//
// Usage: trace_merge -o merged.json server0.json server1.json ... client.json
//
// Object keys come out in sorted order (common/json's canonical form).
//
// Exit status: 0 on success, 1 on malformed input, 2 on usage errors.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"

using idem::json::Type;
using idem::json::Value;

namespace {

struct Input {
  std::string path;
  std::string label;
  long long anchor_ns = 0;  ///< 0 = no anchor (sim export): left unshifted
  Value document;
};

double ts_of(const Value& event) {
  const Value* ts = event.find("ts");
  return ts != nullptr && ts->type() == Type::Number ? ts->as_double() : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = nullptr;
  std::vector<const char*> in_paths;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "-o") && i + 1 < argc) {
      out_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--help")) {
      std::printf("usage: %s -o merged.json trace1.json trace2.json ...\n", argv[0]);
      return 0;
    } else {
      in_paths.push_back(argv[i]);
    }
  }
  if (out_path == nullptr || in_paths.size() < 2) {
    std::fprintf(stderr, "usage: %s -o merged.json trace1.json trace2.json ...\n", argv[0]);
    return 2;
  }

  std::vector<Input> inputs;
  long long base_anchor = 0;
  for (const char* path : in_paths) {
    Input input;
    input.path = path;
    try {
      std::optional<Value> document = Value::parse_file(path);
      if (!document.has_value()) {
        std::fprintf(stderr, "trace_merge: %s: cannot open file\n", path);
        return 1;
      }
      input.document = std::move(*document);
    } catch (const idem::json::ParseError& e) {
      std::fprintf(stderr, "trace_merge: %s: parse error: %s\n", path, e.what());
      return 1;
    }
    const Value* trace_events = input.document.find("traceEvents");
    if (trace_events == nullptr || trace_events->type() != Type::ArrayT) {
      std::fprintf(stderr, "trace_merge: %s: not a Chrome trace document\n", path);
      return 1;
    }
    input.label = path;
    if (const Value* other = input.document.find("otherData")) {
      if (const Value* process = other->find("process");
          process != nullptr && process->type() == Type::String) {
        input.label = process->as_string();
      }
      if (const Value* anchor = other->find("realtime_anchor_ns");
          anchor != nullptr && anchor->type() == Type::Number) {
        input.anchor_ns = static_cast<long long>(anchor->as_double());
      }
    }
    if (input.anchor_ns == 0) {
      std::fprintf(stderr,
                   "trace_merge: warning: %s has no realtime anchor (sim export?);"
                   " its timestamps are taken as already aligned\n",
                   path);
    } else if (base_anchor == 0 || input.anchor_ns < base_anchor) {
      base_anchor = input.anchor_ns;
    }
    inputs.push_back(std::move(input));
  }

  // Collect all events, shifting each document onto the merged origin.
  idem::json::Array metadata;  ///< ph "M" events lead the output
  idem::json::Array events;
  for (Input& input : inputs) {
    double shift_us =
        input.anchor_ns == 0 ? 0.0
                             : static_cast<double>(input.anchor_ns - base_anchor) / 1000.0;
    for (Value& ev : input.document.find("traceEvents")->as_array()) {
      if (ev.type() != Type::ObjectT) continue;
      const Value* ph = ev.find("ph");
      if (ph != nullptr && ph->type() == Type::String && ph->as_string() == "M") {
        // Prefix the track name with the source process so identical node
        // labels from different processes stay tellable apart.
        if (Value* args = ev.find("args")) {
          if (Value* name = args->find("name"); name != nullptr && name->type() == Type::String) {
            *name = Value(input.label + ": " + name->as_string());
          }
        }
        metadata.push_back(std::move(ev));
        continue;
      }
      if (Value* ts = ev.find("ts"); ts != nullptr && ts->type() == Type::Number) {
        *ts = Value(ts->as_double() + shift_us);
      }
      events.push_back(std::move(ev));
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Value& a, const Value& b) { return ts_of(a) < ts_of(b); });

  idem::json::Array all = std::move(metadata);
  for (Value& ev : events) all.push_back(std::move(ev));
  const std::size_t total = all.size();
  idem::json::Object merged;
  merged["displayTimeUnit"] = Value("ms");
  merged["traceEvents"] = Value(std::move(all));
  merged["otherData"] = Value(idem::json::Object{
      {"merged_from", Value(static_cast<std::uint64_t>(inputs.size()))},
      {"base_anchor_ns", Value(static_cast<std::int64_t>(base_anchor))},
  });

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "trace_merge: cannot write %s\n", out_path);
    return 1;
  }
  const std::string text = Value(std::move(merged)).dump();
  std::fwrite(text.data(), 1, text.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("trace_merge: %zu inputs, %zu events -> %s\n", inputs.size(), total, out_path);
  return 0;
}
