#include "common/logging.hpp"

#include <cstdio>

namespace idem {
namespace {

constexpr LogLevel kLevel = LogLevel::Warn;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}

}  // namespace

LogLevel Logger::level() { return kLevel; }

void Logger::write(LogLevel level, const std::string& component, const std::string& message) {
  std::fprintf(stderr, "[%s] %s: %s\n", level_name(level), component.c_str(), message.c_str());
}

}  // namespace idem
