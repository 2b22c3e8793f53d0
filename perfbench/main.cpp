// idem_perfbench: runs one benchmark workload in this process and prints
// its metrics, then one JSON line with everything run.py needs.
//
//   idem_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans <path>]
//   idem_perfbench selftest
//
// One workload per process: the real-mode entry points arm process-global
// wire options that the simulator's message sizes read.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void print_result(const RunOptions& options, RunResult& result) {
  Validity& validity = result.validity;
  for (const auto& [name, metric] : result.report.metrics()) {
    if (!std::isfinite(metric.value)) validity.problems.push_back("metric " + name + " is not finite");
  }
  result.hygiene["nproc"] = std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  result.hygiene["build_type"] = PERFBENCH_BUILD_TYPE;

  std::printf("== %s  seed=%llu  seconds=%g  trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds, options.trace ? 1 : 0);
  for (const auto& [key, value] : result.hygiene) std::printf("   %s: %s\n", key.c_str(), value.c_str());
  std::printf("   %-28s %16s  %-7s %s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, metric] : result.report.metrics()) {
    std::printf("   %-28s %16.6f  %-7s %s\n", name.c_str(), metric.value, metric.unit.c_str(),
                metric.samples > 0 ? std::to_string(metric.samples).c_str() : "");
  }
  std::printf("   correct: %s\n", validity.ok() ? "yes" : "NO");
  for (const std::string& problem : validity.problems) std::printf("   problem: %s\n", problem.c_str());

  std::string json = "{\"workload\": " + quoted(options.workload) +
                     ", \"seed\": " + std::to_string(options.seed) +
                     ", \"trace\": " + (options.trace ? "1" : "0") +
                     ", \"correct\": " + (validity.ok() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(validity.attempted) +
                     ", \"failed\": " + std::to_string(validity.failed) + ", \"problems\": [";
  for (std::size_t i = 0; i < validity.problems.size(); ++i) {
    json += (i ? ", " : "") + quoted(validity.problems[i]);
  }
  json += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.report.metrics()) {
    json += (first ? "" : ", ") + quoted(name) + ": {\"value\": " +
            number(std::isfinite(metric.value) ? metric.value : 0.0) +
            ", \"unit\": " + quoted(metric.unit) + ", \"samples\": " +
            std::to_string(metric.samples) + "}";
    first = false;
  }
  json += "}, \"simtime\": {";
  first = true;
  for (const auto& [name, value] : result.simtime) {
    json += (first ? "" : ", ") + quoted(name) + ": " + number(value);
    first = false;
  }
  json += "}, \"hygiene\": {";
  first = true;
  for (const auto& [key, value] : result.hygiene) {
    json += (first ? "" : ", ") + quoted(key) + ": " + quoted(value);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n"
               "       %s selftest\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "selftest") == 0) {
    const std::vector<std::string> failures = generator_selftest();
    for (const std::string& f : failures) std::printf("generator selftest FAILED: %s\n", f.c_str());
    if (failures.empty()) std::printf("generator selftest passed\n");
    return failures.empty() ? 0 : 1;
  }

  RunOptions options;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string flag = argv[i];
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (options.seconds <= 0) return usage(argv[0]);

  try {
    RunResult result;
    if (is_sim_workload(options.workload)) {
      result = run_sim(options);
    } else if (is_real_workload(options.workload)) {
      result = run_real(options);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
      return 2;
    }
    if (options.trace) result.spans.write(spans_path);
    print_result(options, result);
    return result.validity.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "idem_perfbench: %s\n", e.what());
    return 1;
  }
}
