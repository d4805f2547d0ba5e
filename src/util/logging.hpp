// Minimal leveled logger. Off by default; enabled per-binary for the
// examples' live traces. Thread-safe: level and sink are atomics and sink
// writes are serialized under a mutex, so concurrent NONMASK_LOG lines from
// the thread-pool and campaign workers (src/parallel/) never interleave
// mid-line. Reconfiguring level/sink while workers log is safe but takes
// effect per-line.
#pragma once

#include <iosfwd>
#include <sstream>
#include <string>
#include <string_view>

namespace nonmask {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Small sequential id of the calling thread (1, 2, ... in first-use
/// order). Stable for the thread's lifetime; used by the log prefix and by
/// the tracing spans (src/obs/) so both report the same thread identity.
unsigned current_thread_tag() noexcept;

/// Current UTC wall-clock time as ISO-8601 with millisecond precision,
/// e.g. "2026-08-06T12:34:56.789Z".
std::string iso8601_utc_now();

/// Global log configuration (process-wide).
class Log {
 public:
  static void set_level(LogLevel level) noexcept;
  static LogLevel level() noexcept;
  static void set_sink(std::ostream* sink) noexcept;  // nullptr -> std::clog
  /// Opt-in line prefix "[<ISO-8601 UTC>] [t<tid>] " ahead of the level
  /// tag. Off by default, so existing line-format expectations hold.
  static void set_prefix(bool enabled) noexcept;
  static bool prefix() noexcept;
  static bool enabled(LogLevel level) noexcept;
  static void write(LogLevel level, std::string_view msg);
};

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { Log::write(level_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace nonmask

#define NONMASK_LOG(level)                        \
  if (!::nonmask::Log::enabled(level)) {          \
  } else                                          \
    ::nonmask::detail::LogLine(level)

#define NONMASK_TRACE() NONMASK_LOG(::nonmask::LogLevel::kTrace)
#define NONMASK_DEBUG() NONMASK_LOG(::nonmask::LogLevel::kDebug)
#define NONMASK_INFO() NONMASK_LOG(::nonmask::LogLevel::kInfo)
#define NONMASK_WARN() NONMASK_LOG(::nonmask::LogLevel::kWarn)
#define NONMASK_ERROR() NONMASK_LOG(::nonmask::LogLevel::kError)
