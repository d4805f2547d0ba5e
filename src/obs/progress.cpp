#include "obs/progress.hpp"

#include <chrono>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <string>

namespace nonmask::obs {

namespace {

std::atomic<std::ostream*> g_sink{nullptr};
std::atomic<unsigned> g_interval_ms{500};
std::mutex g_line_mutex;

std::uint64_t wall_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string human_count(double v) {
  char buf[32];
  if (v >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fG", v / 1e9);
  } else if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  }
  return buf;
}

}  // namespace

Counter* explored_states() {
  if (!Metrics::enabled()) return nullptr;
  static Counter& states =
      Registry::instance().counter("checker.states_explored");
  return &states;
}

void Progress::enable(std::ostream* sink, unsigned interval_ms) {
  g_interval_ms.store(interval_ms, std::memory_order_relaxed);
  g_sink.store(sink, std::memory_order_release);
}

void Progress::disable() { g_sink.store(nullptr, std::memory_order_release); }

bool Progress::active() noexcept {
  return g_sink.load(std::memory_order_relaxed) != nullptr;
}

unsigned Progress::interval_ms() noexcept {
  return g_interval_ms.load(std::memory_order_relaxed);
}

void Progress::write_line(const char* label, std::uint64_t done,
                          std::uint64_t total, double per_sec,
                          const char* aux_text) {
  std::ostream* sink = g_sink.load(std::memory_order_acquire);
  if (sink == nullptr) return;
  std::string line = "[progress] ";
  line += label;
  line += ": ";
  line += human_count(static_cast<double>(done));
  if (total > 0) {
    line += "/";
    line += human_count(static_cast<double>(total));
    char pct[16];
    std::snprintf(pct, sizeof(pct), " (%.1f%%)",
                  100.0 * static_cast<double>(done) /
                      static_cast<double>(total));
    line += pct;
  }
  line += " ";
  line += human_count(per_sec);
  line += "/s";
  if (aux_text != nullptr && aux_text[0] != '\0') {
    line += " ";
    line += aux_text;
  }
  std::lock_guard<std::mutex> lock(g_line_mutex);
  *sink << line << '\n';
  sink->flush();
}

ProgressMeter::ProgressMeter(const char* label, std::uint64_t total,
                             Counter* states) noexcept
    : label_(label), total_(total), states_(states) {
  if (!Progress::active() && states_ == nullptr) return;
  start_us_ = wall_us();
  last_report_us_.store(start_us_, std::memory_order_relaxed);
}

ProgressMeter::~ProgressMeter() {
  if (reported_.load(std::memory_order_relaxed)) maybe_report(true);
}

void ProgressMeter::add(std::uint64_t n) noexcept {
  const bool progress = Progress::active();
  if (!progress && states_ == nullptr) return;
  done_.fetch_add(n, std::memory_order_relaxed);
  if (states_ != nullptr) states_->add(n);
  if (progress) maybe_report(false);
}

void ProgressMeter::aux(const char* label, std::uint64_t value) noexcept {
  if (!Progress::active()) return;
  for (AuxSlot& slot : aux_) {
    const char* cur = slot.label.load(std::memory_order_acquire);
    if (cur == nullptr) {
      if (!slot.label.compare_exchange_strong(cur, label,
                                              std::memory_order_acq_rel)) {
        if (cur != label) continue;  // lost to a different label
      }
      slot.value.store(value, std::memory_order_relaxed);
      return;
    }
    if (cur == label) {
      slot.value.store(value, std::memory_order_relaxed);
      return;
    }
  }
}

void ProgressMeter::maybe_report(bool force) noexcept {
  const std::uint64_t now = wall_us();
  std::uint64_t last = last_report_us_.load(std::memory_order_relaxed);
  if (!force) {
    const std::uint64_t interval_us =
        std::uint64_t{Progress::interval_ms()} * 1000;
    if (now - last < interval_us) return;
    // Elect one reporter; losers skip.
    if (!last_report_us_.compare_exchange_strong(
            last, now, std::memory_order_relaxed)) {
      return;
    }
  }
  reported_.store(true, std::memory_order_relaxed);

  const std::uint64_t done = done_.load(std::memory_order_relaxed);
  const double elapsed_s =
      static_cast<double>(now - start_us_) / 1e6;
  const double per_sec =
      elapsed_s > 0 ? static_cast<double>(done) / elapsed_s : 0.0;

  char aux_text[128] = "";
  std::size_t len = 0;
  for (const AuxSlot& slot : aux_) {
    const char* label = slot.label.load(std::memory_order_acquire);
    if (label == nullptr) break;
    const int n = std::snprintf(
        aux_text + len, sizeof(aux_text) - len, "%s%s=%llu",
        len == 0 ? "" : " ", label,
        static_cast<unsigned long long>(
            slot.value.load(std::memory_order_relaxed)));
    if (n < 0 || len + static_cast<std::size_t>(n) >= sizeof(aux_text)) break;
    len += static_cast<std::size_t>(n);
  }
  Progress::write_line(label_, done, total_, per_sec, aux_text);
}

}  // namespace nonmask::obs
