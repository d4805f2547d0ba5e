// Live run telemetry: a background sampler thread that turns a long
// verification run into a JSONL heartbeat series — cumulative states
// explored, instantaneous states/s, live BFS frontier, RSS, live workers,
// and every metrics-registry counter (set probes, arena slabs, BFS levels,
// campaign trials, ...) — so a throughput collapse at minute 3 of a
// 4-minute run is visible instead of averaged away by the end-of-run
// report.
//
// A heartbeat is a function of the metrics registry (obs/metrics.hpp) and
// the process's own memory (obs/rss.hpp), nothing else: the sampler holds
// no pointer to a set or pass, so no pass, trial or walk ever takes its
// mutex, and an object's lifetime never races a sample.
//
// Cost model (the contract of obs/metrics.hpp): telemetry is off by
// default, and start() turns metrics collection on for the run (stop()
// restores the switch as start() found it), so a dormant run pays one
// relaxed load per instrumentation point. The sampler thread only exists
// between start() and stop(). Enable with NONMASK_TELEMETRY=<jsonl-path>
// (interval via NONMASK_TELEMETRY_MS, default 200) or programmatically with
// TelemetryOptions — an empty path keeps the series in memory only, which
// is how --dashboard-out runs collect their data without touching disk.
// The in-memory series keeps the newest kMaxSamples heartbeats; the JSONL
// sink gets every one.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace nonmask::obs {

/// Live pool workers across the process: the registry gauge
/// "pool.workers_live". ThreadPool keeps it unconditionally (one update
/// per pool lifetime), so a sampler started mid-run never underflows it.
Gauge& workers_live();

/// Live BFS frontier states across the process: the registry gauge
/// "checker.frontier_live", the heartbeat's `frontier`. Passes move it
/// through a FrontierShare, never directly.
Gauge& frontier_live();

/// The registry counter of explored states ("checker.states_explored"),
/// the heartbeat's cumulative `states`. A pass that explores states binds
/// it once, when it starts, and adds to it per state or per batch; only
/// passes that visit each state once do (the flags pre-pass scans the same
/// codes its DFS/SCC pass then explores, so it does not). Null while
/// metrics are off, so a dormant run registers nothing.
Counter* explored_states();

/// One BFS pass's share of frontier_live(): set() moves the gauge by the
/// change in this pass's live level size, and the destructor takes the
/// share back out, so concurrent passes add up and a finished pass
/// contributes 0. Like workers_live(), updates are not gated on
/// Metrics::enabled() (a sampler started mid-pass reads the true level);
/// passes update once per level or per batch of expansions.
class FrontierShare {
 public:
  FrontierShare() noexcept : gauge_(frontier_live()) {}
  ~FrontierShare() { set(0); }
  FrontierShare(const FrontierShare&) = delete;
  FrontierShare& operator=(const FrontierShare&) = delete;

  void set(std::uint64_t size) noexcept {
    gauge_.add(static_cast<double>(size) - static_cast<double>(size_));
    size_ = size;
  }

 private:
  Gauge& gauge_;
  std::uint64_t size_ = 0;
};

/// One heartbeat. `states_per_sec` is instantaneous (delta over the
/// sampling interval), not the cumulative average the end-of-run report
/// prints — the difference is exactly what makes mid-run collapses
/// visible.
struct HeartbeatSample {
  std::uint64_t seq = 0;
  std::uint64_t t_ms = 0;  ///< since Telemetry::start()
  std::uint64_t states_explored = 0;  ///< the explored_states() counter
  double states_per_sec = 0.0;
  std::uint64_t frontier = 0;  ///< the frontier_live() gauge
  double rss_mb = 0.0;
  double peak_rss_mb = 0.0;
  std::int64_t workers = 0;  ///< the workers_live() gauge
  std::vector<CounterValue> counters;  ///< the registry's counters

  /// The registry counter `name` at this heartbeat; 0 when not registered.
  std::uint64_t counter(std::string_view name) const noexcept;
};

/// One JSONL heartbeat line (no trailing newline). The key set and order
/// are the schema the golden test and bench_compare.py --telemetry parse.
std::string to_json(const HeartbeatSample& sample);

struct TelemetryOptions {
  std::string path;           ///< JSONL sink; empty = in-memory only
  unsigned interval_ms = 200;
};

class Telemetry {
 public:
  /// Heartbeats kept in memory (the newest ones): 13 minutes at the 200 ms
  /// default interval.
  static constexpr std::size_t kMaxSamples = 4096;

  /// Turn metrics collection on and start the sampler thread. No-op if
  /// already running. Throws when the JSONL path cannot be opened.
  static void start(const TelemetryOptions& opts);
  /// Start from NONMASK_TELEMETRY / NONMASK_TELEMETRY_MS; no-op when the
  /// variable is unset. Returns true when the sampler was started.
  static bool start_from_env();
  /// Join the sampler after taking one final sample (so the last
  /// heartbeat's cumulative state count matches the end-of-run report),
  /// then put the metrics switch back as start() found it. No-op when not
  /// running.
  static void stop();
  static bool running() noexcept;

  /// Take a sample immediately (also appended to the series and the JSONL
  /// sink). Requires a prior start(); used by stop() and tests.
  static HeartbeatSample sample_now();
  /// Copy of the in-memory heartbeat series: the newest kMaxSamples
  /// recorded since start(), oldest first.
  static std::vector<HeartbeatSample> samples();
  /// The newest `n` heartbeats of that series, oldest first.
  static std::vector<HeartbeatSample> samples_tail(std::size_t n);
};

}  // namespace nonmask::obs
