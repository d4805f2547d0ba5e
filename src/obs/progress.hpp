// Rate-limited progress reporting for long checker, sweep, and campaign
// runs: a process-wide sink plus per-operation meters that print at most
// one line per interval ("states explored, states/sec, frontier size, ...").
//
// Off by default: with no sink configured and metrics off, ProgressMeter::
// add is one relaxed atomic load, a member test, and a return. Most
// instrumentation points call add() at batch granularity (per slice,
// chunk, BFS level, or trial); the DFS and SCC cores tick once per state.
// Meters are safe to tick from many threads: counts accumulate with
// relaxed atomics and the interval gate elects one reporting thread by
// compare-exchange.
//
// A pass that explores states hands its meter the explored_states()
// counter, as a Span takes a histogram, and every add() also feeds that
// registry counter — the heartbeat's cumulative `states`. The telemetry
// sampler reads the counter, never the meter: meters do not register
// anywhere, so a meter handed no counter and no sink accumulates nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>

#include "obs/metrics.hpp"

namespace nonmask::obs {

/// The registry counter of explored states ("checker.states_explored").
/// Only passes that visit each state once hand it to their meter: the
/// flags pre-pass scans the same codes its DFS/SCC pass then explores, so
/// it does not. Null while metrics are off, so a dormant run registers
/// nothing.
Counter* explored_states();

/// Process-wide progress configuration.
class Progress {
 public:
  /// Route progress lines to `sink` (must outlive reporting) at most once
  /// per `interval_ms` per meter.
  static void enable(std::ostream* sink, unsigned interval_ms = 500);
  static void disable();
  static bool active() noexcept;
  static unsigned interval_ms() noexcept;
  /// Serialized write of one progress line (internal, used by meters).
  static void write_line(const char* label, std::uint64_t done,
                         std::uint64_t total, double per_sec,
                         const char* aux_text);
};

/// Progress over one long-running operation. `total` == 0 means unknown
/// (no percentage is printed). `states`, when set, also receives every
/// add(). Construction is cheap; destruction emits a final line only if a
/// periodic line was already printed.
class ProgressMeter {
 public:
  explicit ProgressMeter(const char* label, std::uint64_t total = 0,
                         Counter* states = nullptr) noexcept;
  ~ProgressMeter();
  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  /// Account `n` more units of work; prints when the interval elapsed.
  void add(std::uint64_t n) noexcept;

  /// Publish an auxiliary "label=value" pair shown on subsequent lines
  /// (e.g. frontier size, SCCs found). `label` must be a string literal;
  /// up to 4 distinct labels per meter, extras are dropped.
  void aux(const char* label, std::uint64_t value) noexcept;

  std::uint64_t done() const noexcept {
    return done_.load(std::memory_order_relaxed);
  }

 private:
  void maybe_report(bool force) noexcept;

  const char* label_;
  std::uint64_t total_;
  Counter* states_;
  std::atomic<std::uint64_t> done_{0};
  std::uint64_t start_us_ = 0;
  std::atomic<std::uint64_t> last_report_us_{0};
  std::atomic<bool> reported_{false};

  struct AuxSlot {
    std::atomic<const char*> label{nullptr};
    std::atomic<std::uint64_t> value{0};
  };
  AuxSlot aux_[4];
};

}  // namespace nonmask::obs
