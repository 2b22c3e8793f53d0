#include "real/admin.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "common/json.hpp"

namespace idem::real {

namespace {

std::string group_labels(const Admin::Member& member) {
  return member.group ? "group=" + std::to_string(*member.group) : std::string();
}

/// Current scalar values as a JSON object; "tcp.sent" nests as
/// {"tcp":{"sent":..}}.
json::Object values_json(const obs::MetricsReading& reading) {
  json::Object out;
  for (const obs::MetricsReading::Scalar& s : reading.scalars) {
    const auto dot = s.name.find('.');
    if (dot == std::string::npos) {
      out[s.name] = s.value;
      continue;
    }
    json::Value& section = out[s.name.substr(0, dot)];
    if (section.is_null()) section = json::Object{};
    section.as_object()[s.name.substr(dot + 1)] = s.value;
  }
  return out;
}

}  // namespace

Admin::Admin(rpc::EventLoop& loop, std::uint16_t port, std::vector<Member> members,
             obs::ChromeTraceMeta trace_meta)
    : members_(std::move(members)), trace_meta_(std::move(trace_meta)), http_(loop, port) {
  http_.route("/metrics", "text/plain; version=0.0.4", [this] { return metrics(); });
  http_.route("/stats", "application/json", [this] { return stats(); });
  http_.route("/trace", "application/json", [this] { return trace(); });
}

std::string Admin::metrics() {
  obs::MetricsReading merged;
  for (const Member& member : members_) merged.merge(member.read(), group_labels(member));
  return obs::LiveMetrics::render_prometheus(window_.snapshot(std::move(merged)));
}

std::string Admin::stats() {
  obs::MetricsReading merged;
  std::map<std::uint32_t, obs::MetricsReading> groups;
  json::Array members;
  for (const Member& member : members_) {
    const obs::MetricsReading reading = member.read();
    json::Object entry = values_json(reading);
    entry["member"] = member.name;
    if (member.group) {
      entry["group"] = static_cast<std::uint64_t>(*member.group);
      groups[*member.group].merge(reading);
    }
    members.push_back(std::move(entry));
    merged.merge(reading, group_labels(member));
  }
  json::Object doc{{"members", std::move(members)},
                   {"live", obs::LiveMetrics::render_json(window_.snapshot(std::move(merged)))}};
  if (!groups.empty()) {
    json::Array per_group;
    for (const auto& [group, reading] : groups) {
      json::Object entry = values_json(reading);
      entry["group"] = static_cast<std::uint64_t>(group);
      per_group.push_back(std::move(entry));
    }
    doc["per_group"] = std::move(per_group);
  }
  return json::Value(std::move(doc)).dump();
}

std::string Admin::trace() {
  std::vector<std::vector<obs::TraceEvent>> parts;
  for (const Member& member : members_) {
    if (member.trace) parts.push_back(member.trace());
  }
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  if (mem == nullptr) return "{}";
  obs::write_chrome_trace(mem, obs::merge_trace_snapshots(std::move(parts)), trace_meta_);
  std::fclose(mem);
  std::string body(buf, len);
  std::free(buf);
  return body;
}

}  // namespace idem::real
