#include "obs/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "obs/progress.hpp"
#include "obs/rss.hpp"
#include "util/json.hpp"

namespace nonmask::obs {

namespace {

std::uint64_t wall_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct TelemetryState {
  std::mutex mutex;  // guards everything below
  std::condition_variable cv;
  bool running = false;
  bool stop_requested = false;
  bool metrics_before = false;  // Metrics::enabled() when start() ran
  std::thread sampler;
  TelemetryOptions opts;
  std::ofstream out;
  Counter* states = nullptr;  // explored_states(), bound by start()
  std::uint64_t start_us = 0;
  std::uint64_t seq = 0;
  std::uint64_t prev_states = 0;
  std::uint64_t prev_t_us = 0;
  std::deque<HeartbeatSample> series;  // the newest kMaxSamples
  std::vector<const ProgressMeter*> meters;
  std::vector<const SetTelemetrySource*> sets;
  SetSample retired;          // aggregate of destroyed sets
  std::uint64_t sets_seen = 0;
};

TelemetryState& state() {
  static TelemetryState s;
  return s;
}

void fold_into(SetSample& acc, const SetSample& s) {
  acc.shards += s.shards;
  acc.materialized += s.materialized;
  acc.entries += s.entries;
  acc.capacity += s.capacity;
  acc.max_probe = std::max(acc.max_probe, s.max_probe);
  acc.arena_bytes += s.arena_bytes;
}

/// Take one heartbeat. Caller holds state().mutex.
HeartbeatSample sample_locked(TelemetryState& s) {
  HeartbeatSample hb;
  const std::uint64_t now_us = wall_us();
  hb.seq = s.seq++;
  hb.t_ms = (now_us - s.start_us) / 1000;
  hb.states_explored = s.states->value();
  // A Registry::reset() mid-run rewinds the counter; count no negative rate.
  const std::uint64_t delta = hb.states_explored >= s.prev_states
                                  ? hb.states_explored - s.prev_states
                                  : 0;
  const std::uint64_t dt_us = now_us - s.prev_t_us;
  hb.states_per_sec = dt_us == 0 ? 0.0
                                 : static_cast<double>(delta) * 1e6 /
                                       static_cast<double>(dt_us);
  s.prev_states = hb.states_explored;
  s.prev_t_us = now_us;
  hb.rss_mb = current_rss_mb();
  hb.peak_rss_mb = peak_rss_mb();
  hb.workers = static_cast<std::int64_t>(workers_live().value());
  hb.counters = Registry::instance().counter_values();
  for (const ProgressMeter* meter : s.meters) {
    MeterSample ms;
    meter->sample_into(ms);
    for (const auto& [label, value] : ms.aux) {
      if (label == "frontier") hb.frontier += value;
    }
    hb.meters.push_back(std::move(ms));
  }
  for (const SetTelemetrySource* set : s.sets) {
    hb.sets.push_back(set->sample_set_telemetry());
  }
  s.series.push_back(hb);
  if (s.series.size() > Telemetry::kMaxSamples) s.series.pop_front();
  if (s.out.is_open()) {
    s.out << to_json(hb) << '\n';
    s.out.flush();
  }
  return hb;
}

void sampler_loop() {
  TelemetryState& s = state();
  std::unique_lock<std::mutex> lock(s.mutex);
  while (!s.stop_requested) {
    const auto interval = std::chrono::milliseconds(
        s.opts.interval_ms == 0 ? 1 : s.opts.interval_ms);
    s.cv.wait_for(lock, interval, [&s] { return s.stop_requested; });
    if (s.stop_requested) break;
    sample_locked(s);
  }
}

}  // namespace

Gauge& workers_live() {
  static Gauge& gauge = Registry::instance().gauge("pool.workers_live");
  return gauge;
}

std::uint64_t HeartbeatSample::counter(std::string_view name) const noexcept {
  for (const auto& [counter_name, value] : counters) {
    if (counter_name == name) return value;
  }
  return 0;
}

std::string to_json(const HeartbeatSample& hb) {
  std::string out;
  util::JsonWriter w(&out);
  w.begin_object();
  w.key("seq");
  w.value(hb.seq);
  w.key("t_ms");
  w.value(hb.t_ms);
  w.key("states");
  w.value(hb.states_explored);
  w.key("states_per_sec");
  w.value(hb.states_per_sec);
  w.key("frontier");
  w.value(hb.frontier);
  w.key("rss_mb");
  w.value(hb.rss_mb);
  w.key("peak_rss_mb");
  w.value(hb.peak_rss_mb);
  w.key("workers");
  w.value(static_cast<std::int64_t>(hb.workers));
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : hb.counters) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.key("meters");
  w.begin_array();
  for (const MeterSample& m : hb.meters) {
    w.begin_object();
    w.key("label");
    w.value(m.label);
    w.key("done");
    w.value(m.done);
    w.key("total");
    w.value(m.total);
    w.key("aux");
    w.begin_object();
    for (const auto& [label, value] : m.aux) {
      w.key(label);
      w.value(value);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("sets");
  w.begin_array();
  for (const SetSample& set : hb.sets) {
    w.begin_object();
    w.key("shards");
    w.value(set.shards);
    w.key("materialized");
    w.value(set.materialized);
    w.key("entries");
    w.value(set.entries);
    w.key("capacity");
    w.value(set.capacity);
    w.key("max_probe");
    w.value(set.max_probe);
    w.key("arena_bytes");
    w.value(set.arena_bytes);
    w.key("shard_entries");
    w.begin_array();
    for (std::uint64_t e : set.shard_entries) w.value(e);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out;
}

void Telemetry::start(const TelemetryOptions& opts) {
  TelemetryState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.running) return;
  if (!opts.path.empty()) {
    s.out.open(opts.path, std::ios::trunc);
    if (!s.out) {
      throw std::runtime_error("telemetry: cannot open JSONL sink " +
                               opts.path);
    }
  }
  s.opts = opts;
  s.running = true;
  s.stop_requested = false;
  s.metrics_before = Metrics::enabled();
  Metrics::set_enabled(true);
  s.states = explored_states();
  s.start_us = wall_us();
  s.seq = 0;
  s.prev_states = s.states->value();
  s.prev_t_us = s.start_us;
  s.series.clear();
  s.sampler = std::thread(sampler_loop);
}

bool Telemetry::start_from_env() {
  const char* path = std::getenv("NONMASK_TELEMETRY");
  if (path == nullptr || path[0] == '\0') return false;
  TelemetryOptions opts;
  opts.path = path;
  if (const char* ms = std::getenv("NONMASK_TELEMETRY_MS")) {
    const long parsed = std::strtol(ms, nullptr, 10);
    if (parsed >= 1) opts.interval_ms = static_cast<unsigned>(parsed);
  }
  start(opts);
  return true;
}

void Telemetry::stop() {
  TelemetryState& s = state();
  std::thread joinable;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.running || s.stop_requested) return;  // second stop(): no-op
    s.stop_requested = true;
    joinable = std::move(s.sampler);
  }
  s.cv.notify_all();
  joinable.join();
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    sample_locked(s);  // final heartbeat: cumulative count == report count
    Metrics::set_enabled(s.metrics_before);
    s.running = false;
    if (s.out.is_open()) s.out.close();
  }
}

bool Telemetry::running() noexcept {
  TelemetryState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.running;
}

HeartbeatSample Telemetry::sample_now() {
  TelemetryState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (!s.running) throw std::logic_error("telemetry: sample_now before start");
  return sample_locked(s);
}

std::vector<HeartbeatSample> Telemetry::samples() {
  return samples_tail(kMaxSamples);
}

std::vector<HeartbeatSample> Telemetry::samples_tail(std::size_t n) {
  TelemetryState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  const std::size_t begin = s.series.size() > n ? s.series.size() - n : 0;
  return {s.series.begin() + static_cast<std::ptrdiff_t>(begin),
          s.series.end()};
}

void Telemetry::register_meter(const ProgressMeter* meter) noexcept {
  TelemetryState& s = state();
  try {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.meters.push_back(meter);
  } catch (...) {
    // ProgressMeter's constructor is noexcept; a failed registration just
    // means this meter goes unsampled.
  }
}

void Telemetry::unregister_meter(const ProgressMeter* meter) noexcept {
  TelemetryState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.meters.erase(std::remove(s.meters.begin(), s.meters.end(), meter),
                 s.meters.end());
}

void Telemetry::register_set(const SetTelemetrySource* set) {
  TelemetryState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.sets.push_back(set);
  ++s.sets_seen;
}

void Telemetry::unregister_set(const SetTelemetrySource* set) {
  const SetSample final_sample = set->sample_set_telemetry();
  TelemetryState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  fold_into(s.retired, final_sample);
  s.sets.erase(std::remove(s.sets.begin(), s.sets.end(), set), s.sets.end());
}

SetSample Telemetry::set_aggregate() {
  TelemetryState& s = state();
  // Live sets are sampled under the registry lock: a set's destructor
  // unregisters under the same mutex before freeing its shards, so every
  // pointer in the list stays valid until the lock is released. Locks are
  // taken registry -> shard, the sampler's order (sample_locked).
  std::lock_guard<std::mutex> lock(s.mutex);
  SetSample acc = s.retired;
  for (const SetTelemetrySource* set : s.sets) {
    fold_into(acc, set->sample_set_telemetry());
  }
  return acc;
}

std::uint64_t Telemetry::sets_seen() noexcept {
  TelemetryState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.sets_seen;
}

}  // namespace nonmask::obs
