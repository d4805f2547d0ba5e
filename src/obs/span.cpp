#include "obs/span.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <map>
#include <mutex>
#include <ostream>
#include <string_view>

#include "util/json.hpp"
#include "util/logging.hpp"

namespace nonmask::obs {

namespace {

std::atomic<bool> g_trace_enabled{false};
std::mutex g_events_mutex;
std::vector<TraceEvent>& event_buffer() {
  static std::vector<TraceEvent>* events = new std::vector<TraceEvent>();
  return *events;
}

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - trace_epoch())
          .count());
}

}  // namespace

void Trace::set_enabled(bool on) noexcept {
  if (on) trace_epoch();  // pin the epoch before the first event
  g_trace_enabled.store(on, std::memory_order_relaxed);
}

bool Trace::enabled() noexcept {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void Trace::clear() {
  std::lock_guard<std::mutex> lock(g_events_mutex);
  event_buffer().clear();
}

std::size_t Trace::event_count() {
  std::lock_guard<std::mutex> lock(g_events_mutex);
  return event_buffer().size();
}

std::vector<TraceEvent> Trace::events() {
  std::lock_guard<std::mutex> lock(g_events_mutex);
  return event_buffer();
}

void Trace::write_chrome_trace(std::ostream& out) {
  const auto snapshot = events();
  std::string json;
  json.reserve(snapshot.size() * 96 + 64);
  util::JsonWriter w(&json);
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("traceEvents");
  w.begin_array();
  for (const TraceEvent& e : snapshot) {
    w.begin_object();
    w.key("name");
    w.value(std::string_view(e.name));
    w.key("cat");
    w.value("nonmask");
    w.key("ph");
    w.value("X");
    w.key("ts");
    w.value(e.ts_us);
    w.key("dur");
    w.value(e.dur_us);
    w.key("pid");
    w.value(std::uint64_t{1});
    w.key("tid");
    w.value(static_cast<std::uint64_t>(e.tid));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << json << '\n';
}

void Trace::write_flame_summary(std::ostream& out) {
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_us = 0;
    std::uint64_t max_us = 0;
  };
  std::map<std::string_view, Agg> by_name;
  for (const TraceEvent& e : events()) {
    Agg& a = by_name[e.name];
    ++a.count;
    a.total_us += e.dur_us;
    a.max_us = std::max(a.max_us, e.dur_us);
  }
  std::vector<std::pair<std::string_view, Agg>> rows(by_name.begin(),
                                                     by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });

  out << std::left << std::setw(32) << "span" << std::right << std::setw(8)
      << "count" << std::setw(12) << "total ms" << std::setw(12) << "mean ms"
      << std::setw(12) << "max ms" << '\n';
  const auto ms = [](std::uint64_t us) {
    return static_cast<double>(us) / 1000.0;
  };
  for (const auto& [name, a] : rows) {
    out << std::left << std::setw(32) << name << std::right << std::setw(8)
        << a.count << std::fixed << std::setprecision(3) << std::setw(12)
        << ms(a.total_us) << std::setw(12)
        << ms(a.total_us) / static_cast<double>(a.count) << std::setw(12)
        << ms(a.max_us) << std::defaultfloat
        << std::setprecision(6) << '\n';
  }
}

Span::Span(const char* name, Histogram* duration_us) noexcept
    : name_(name), hist_(duration_us) {
  const bool tracing = Trace::enabled();
  const bool measuring = hist_ != nullptr && Metrics::enabled();
  if (!tracing && !measuring) return;
  if (!tracing) name_ = nullptr;  // histogram only: skip event recording
  active_ = true;
  start_us_ = now_us();
}

void Span::end() noexcept {
  if (!active_) return;
  active_ = false;
  const std::uint64_t end_us = now_us();
  const std::uint64_t dur = end_us - start_us_;
  if (hist_ != nullptr) hist_->record(dur);
  if (name_ == nullptr || !Trace::enabled()) return;
  TraceEvent e{name_, current_thread_tag(), start_us_, dur};
  std::lock_guard<std::mutex> lock(g_events_mutex);
  event_buffer().push_back(e);
}

}  // namespace nonmask::obs
