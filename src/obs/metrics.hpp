// Process-wide metrics registry: named counters, gauges, and histograms
// with lock-free record paths, designed so the checker and parallel
// subsystems can stay instrumented permanently. It is the one store of
// counts: end-of-pass totals, the live counters the telemetry sampler
// polls (set probes, arena slabs, BFS levels, campaign trials), and the
// explored-states count the exploring passes feed.
//
// Cost model. Collection is off by default (Metrics::enabled is the only
// switch that gates counts; Telemetry::start turns it on): every record
// call first reads one relaxed atomic flag and returns, so dormant
// instrumentation is a load + predicted branch. Most instrumentation
// points sit at batch granularity (per chunk, per level, per trial, per
// completed check). A few tick per state or per insert — the DFS and SCC
// cores' explored-states count and the concurrent set's probe count — and
// those pay a relaxed RMW per tick while collection is on. Registration
// (`Registry::counter(...)` etc.) takes a mutex and is meant for call-site
// setup, not inner loops — hold the returned reference. Register a counter
// only while collection is on, so a dormant run's report does not grow a
// zero entry for it.
//
// Concurrency. Counter/Gauge are single atomics. Histogram shards its
// accumulators per thread slot: a record touches only the calling thread's
// shard with relaxed atomic ops, so concurrent records never contend and a
// snapshot taken mid-write is a consistent (if slightly stale) sum. All
// record/snapshot paths are data-race-free under ThreadSanitizer.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace nonmask::obs {

/// Global collection switch (default: off).
class Metrics {
 public:
  static void set_enabled(bool on) noexcept;
  static bool enabled() noexcept;
};

class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    if (!Metrics::enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  const std::string& name() const noexcept { return name_; }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// A level its owner keeps current whether or not collection is on, so a
/// collector switched on mid-run reads the true value (the thread pool's
/// live workers and the BFS passes' live frontier, obs/telemetry.hpp).
/// Updates are therefore not gated, and owners make them at rare events
/// only.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Aggregated view of one histogram at snapshot time.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when count == 0
  std::uint64_t max = 0;
  /// Log2 buckets: bucket b counts values v with 2^(b-1) <= v < 2^b
  /// (bucket 0 counts v == 0).
  std::array<std::uint64_t, 65> buckets{};

  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Percentile estimate from the bucket histogram: the upper bound of the
  /// bucket containing rank q*count (exact for min/max, otherwise within a
  /// factor of 2). Returns 0 when empty.
  double approx_percentile(double q) const noexcept;
};

/// Fixed-bucket log2 histogram of uint64 values (durations, sizes) with
/// per-thread-slot shards. Threads map to one of kShardSlots slots by their
/// thread tag; slot collisions only share a shard, they never break
/// correctness.
class Histogram {
 public:
  explicit Histogram(std::string name) : name_(std::move(name)) {}
  ~Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t value) noexcept;
  HistogramSnapshot snapshot() const;
  const std::string& name() const noexcept { return name_; }
  void reset() noexcept;

 private:
  static constexpr unsigned kShardSlots = 64;

  struct Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, 65> buckets{};
  };

  Shard& shard_for_this_thread() noexcept;

  std::string name_;
  std::array<std::atomic<Shard*>, kShardSlots> shards_{};
};

/// One counter at snapshot time. The name views the registry's own copy,
/// which lives as long as the process.
using CounterValue = std::pair<std::string_view, std::uint64_t>;

/// Everything the registry knows, keyed and sorted by metric name. Gauges
/// are listed only while collection is on: they are kept current even on
/// a dormant run, and its report carries nothing it did not collect.
struct RegistrySnapshot {
  std::vector<CounterValue> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

class Registry {
 public:
  static Registry& instance();

  /// Find-or-create by name. References stay valid for the process
  /// lifetime; call once per site and keep the reference.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  RegistrySnapshot snapshot() const;
  /// Just the counters, sorted by name: the telemetry heartbeat's
  /// `counters` object.
  std::vector<CounterValue> counter_values() const;
  /// Zero every counter and histogram (names survive; gauges are levels,
  /// not accumulations, and keep theirs). For tests and CLI runs that want
  /// a per-phase snapshot.
  void reset();

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace nonmask::obs
