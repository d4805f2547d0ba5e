// Live run telemetry: a background sampler thread that turns a long
// verification run into a JSONL heartbeat series — cumulative states
// explored, instantaneous states/s, frontier size, per-shard visited-set
// occupancy, RSS, live workers, and every metrics-registry counter (set
// probes, arena slabs, BFS levels, campaign trials, ...) — so a throughput
// collapse at minute 3 of a 4-minute run is visible instead of averaged
// away by the end-of-run report.
//
// Cost model (the contract of obs/metrics.hpp, whose registry holds every
// count the sampler reads): telemetry is off by default, and start() turns
// metrics collection on for the run (stop() restores the switch as start()
// found it), so a dormant run pays one relaxed load per instrumentation
// point. The sampler thread only exists between start() and stop(). Enable
// with NONMASK_TELEMETRY=<jsonl-path> (interval via NONMASK_TELEMETRY_MS,
// default 200) or programmatically with TelemetryOptions — an empty path
// keeps the series in memory only, which is how --dashboard-out runs
// collect their data without touching disk. The in-memory series keeps the
// newest kMaxSamples heartbeats; the JSONL sink gets every one.
//
// Samplable objects register themselves while metrics are collected:
// ProgressMeter registers in its constructor (progress.hpp) so the sampler
// can read done/total/aux without cooperation from the meter's owner, and
// ConcurrentPackedSet implements SetTelemetrySource. Set registration is
// unconditional (construction is rare) because the retired-set aggregate
// also feeds the run-report store section when telemetry is off.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace nonmask::obs {

class ProgressMeter;

/// Live pool workers across the process: the registry's one gauge
/// ("pool.workers_live"). ThreadPool keeps it unconditionally (one update
/// per pool lifetime), so a sampler started mid-run never underflows it.
Gauge& workers_live();

/// One registered ProgressMeter, as seen by the sampler.
struct MeterSample {
  std::string label;
  std::uint64_t done = 0;
  std::uint64_t total = 0;  ///< 0 = unknown
  std::vector<std::pair<std::string, std::uint64_t>> aux;
};

/// One registered concurrent set, as seen by the sampler (and, folded
/// across retired sets, by the run-report store section).
struct SetSample {
  std::uint64_t shards = 0;        ///< configured shard count
  std::uint64_t materialized = 0;  ///< shards touched so far
  std::uint64_t entries = 0;
  std::uint64_t capacity = 0;      ///< summed table slots
  std::uint64_t max_probe = 0;     ///< longest insert probe sequence
  std::uint64_t arena_bytes = 0;
  std::vector<std::uint64_t> shard_entries;  ///< per-shard occupancy
};

/// Implemented by containers the sampler polls (ConcurrentPackedSet).
class SetTelemetrySource {
 public:
  virtual ~SetTelemetrySource() = default;
  virtual SetSample sample_set_telemetry() const = 0;
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
  std::uint64_t frontier = 0;  ///< summed "frontier" aux across meters
  double rss_mb = 0.0;
  double peak_rss_mb = 0.0;
  std::int64_t workers = 0;  ///< the workers_live() gauge
  std::vector<CounterValue> counters;  ///< the registry's counters
  std::vector<MeterSample> meters;
  std::vector<SetSample> sets;

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

  static void register_meter(const ProgressMeter* meter) noexcept;
  static void unregister_meter(const ProgressMeter* meter) noexcept;
  static void register_set(const SetTelemetrySource* set);
  /// Folds the set's final sample into the retired aggregate, then drops
  /// it from the live list.
  static void unregister_set(const SetTelemetrySource* set);

  /// Aggregate of every set that lived in this process (retired + live):
  /// the run-report "store" section. Available with telemetry off.
  static SetSample set_aggregate();
  static std::uint64_t sets_seen() noexcept;
};

}  // namespace nonmask::obs
