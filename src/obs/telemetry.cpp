#include "obs/telemetry.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

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
};

TelemetryState& state() {
  static TelemetryState s;
  return s;
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
  hb.frontier = static_cast<std::uint64_t>(frontier_live().value());
  hb.rss_mb = current_rss_mb();
  hb.peak_rss_mb = peak_rss_mb();
  hb.workers = static_cast<std::int64_t>(workers_live().value());
  hb.counters = Registry::instance().counter_values();
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

Gauge& frontier_live() {
  static Gauge& gauge = Registry::instance().gauge("checker.frontier_live");
  return gauge;
}

Counter* explored_states() {
  if (!Metrics::enabled()) return nullptr;
  static Counter& states =
      Registry::instance().counter("checker.states_explored");
  return &states;
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

}  // namespace nonmask::obs
