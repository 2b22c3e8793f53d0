// Minimal leveled logging.
//
// Protocol code logs through LOG_* macros; benches and tests run with the
// level raised to Warn so the hot path stays silent. The logger is a single
// process-wide sink by design — the simulator is single-threaded and the
// log is ordered by simulated event execution.
#pragma once

#include <sstream>
#include <string>

namespace idem {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

class Logger {
 public:
  static LogLevel level();
  static void write(LogLevel level, const std::string& component, const std::string& message);
  static bool enabled(LogLevel level) { return level >= Logger::level(); }
};

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}
}  // namespace detail

/// Compile-time level floor. LOG_* calls below this level compile to
/// nothing — the format arguments are never evaluated and the branch
/// disappears entirely, so Trace/Debug statements cost zero in builds
/// that define a higher floor (Release defines 2 = Info by default).
#ifndef IDEM_LOG_COMPILE_LEVEL
#define IDEM_LOG_COMPILE_LEVEL 0
#endif

#define IDEM_LOG(level, component, ...)                                               \
  do {                                                                                \
    if constexpr (static_cast<int>(level) >= IDEM_LOG_COMPILE_LEVEL) {                \
      if (::idem::Logger::enabled(level)) {                                           \
        ::idem::Logger::write(level, component, ::idem::detail::concat(__VA_ARGS__)); \
      }                                                                               \
    }                                                                                 \
  } while (0)

#define LOG_TRACE(component, ...) IDEM_LOG(::idem::LogLevel::Trace, component, __VA_ARGS__)
#define LOG_DEBUG(component, ...) IDEM_LOG(::idem::LogLevel::Debug, component, __VA_ARGS__)
#define LOG_INFO(component, ...) IDEM_LOG(::idem::LogLevel::Info, component, __VA_ARGS__)
#define LOG_WARN(component, ...) IDEM_LOG(::idem::LogLevel::Warn, component, __VA_ARGS__)
#define LOG_ERROR(component, ...) IDEM_LOG(::idem::LogLevel::Error, component, __VA_ARGS__)

}  // namespace idem
