#include "obs/report.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "util/json.hpp"
#include "util/logging.hpp"

namespace nonmask::obs {

namespace {

std::uint64_t wall_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void stats_fields(util::JsonWriter& w, const SampleStats& stats) {
  w.begin_object();
  w.key("count");
  w.value(static_cast<std::uint64_t>(stats.count));
  w.key("sum");
  w.value(stats.sum);
  w.key("mean");
  w.value(stats.mean);
  w.key("stddev");
  w.value(stats.stddev);
  w.key("min");
  w.value(stats.min);
  w.key("max");
  w.value(stats.max);
  w.key("p50");
  w.value(stats.p50);
  w.key("p95");
  w.value(stats.p95);
  w.key("p99");
  w.value(stats.p99);
  w.end_object();
}

}  // namespace

std::string to_json(const SampleStats& stats) {
  std::string out;
  util::JsonWriter w(&out);
  stats_fields(w, stats);
  return out;
}

std::string to_json(const ClosureReport& report) {
  std::string out;
  util::JsonWriter w(&out);
  w.begin_object();
  w.key("closed");
  w.value(report.closed);
  w.key("states_checked");
  w.value(report.states_checked);
  w.key("transitions_checked");
  w.value(report.transitions_checked);
  w.key("has_violation");
  w.value(report.violation.has_value());
  if (report.violation.has_value()) {
    w.key("violating_action");
    w.value(static_cast<std::uint64_t>(report.violation->action));
  }
  w.end_object();
  return out;
}

std::string to_json(const ConvergenceReport& report) {
  std::string out;
  util::JsonWriter w(&out);
  w.begin_object();
  w.key("verdict");
  w.value(to_string(report.verdict));
  w.key("states_in_T");
  w.value(report.states_in_T);
  w.key("states_in_S");
  w.value(report.states_in_S);
  w.key("region_states");
  w.value(report.region_states);
  w.key("transitions");
  w.value(report.transitions);
  w.key("max_steps_to_S");
  w.value(report.max_steps_to_S);
  w.key("has_cycle");
  w.value(report.cycle.has_value());
  if (report.cycle.has_value()) {
    w.key("cycle_length");
    w.value(static_cast<std::uint64_t>(report.cycle->size()));
  }
  w.key("has_deadlock");
  w.value(report.deadlock.has_value());
  w.end_object();
  return out;
}

std::string to_json(const ConvergenceResults& results) {
  std::string out;
  util::JsonWriter w(&out);
  w.begin_object();
  w.key("converged_fraction");
  w.value(results.converged_fraction);
  w.key("steps");
  stats_fields(w, results.steps);
  w.key("rounds");
  stats_fields(w, results.rounds);
  w.key("moves");
  stats_fields(w, results.moves);
  w.end_object();
  return out;
}

std::string to_json(const HistogramSnapshot& snapshot) {
  std::string out;
  util::JsonWriter w(&out);
  w.begin_object();
  w.key("count");
  w.value(snapshot.count);
  w.key("sum");
  w.value(snapshot.sum);
  w.key("min");
  w.value(snapshot.min);
  w.key("max");
  w.value(snapshot.max);
  w.key("mean");
  w.value(snapshot.mean());
  w.key("p50");
  w.value(snapshot.approx_percentile(0.50));
  w.key("p95");
  w.value(snapshot.approx_percentile(0.95));
  w.key("p99");
  w.value(snapshot.approx_percentile(0.99));
  w.end_object();
  return out;
}

std::string metrics_to_json() {
  const RegistrySnapshot snap = Registry::instance().snapshot();
  std::string out;
  util::JsonWriter w(&out);
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : snap.counters) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, value] : snap.gauges) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, hist] : snap.histograms) {
    w.key(name);
    w.raw(to_json(hist));
  }
  w.end_object();
  w.end_object();
  return out;
}

RunReport::RunReport(std::string tool, std::string design)
    : tool_(std::move(tool)),
      design_(std::move(design)),
      started_at_(iso8601_utc_now()),
      start_us_(wall_us()) {}

void RunReport::add(std::string key, std::string json_value) {
  sections_.emplace_back(std::move(key), std::move(json_value));
}

void RunReport::add_text(std::string key, std::string_view text) {
  std::string value;
  util::JsonWriter w(&value);
  w.value(text);
  sections_.emplace_back(std::move(key), std::move(value));
}

void RunReport::add_number(std::string key, double value) {
  std::string rendered;
  util::JsonWriter w(&rendered);
  w.value(value);
  sections_.emplace_back(std::move(key), std::move(rendered));
}

void RunReport::add_number(std::string key, std::uint64_t value) {
  std::string rendered;
  util::JsonWriter w(&rendered);
  w.value(value);
  sections_.emplace_back(std::move(key), std::move(rendered));
}

std::string RunReport::to_json() const {
  std::string out;
  util::JsonWriter w(&out);
  w.begin_object();
  w.key("tool");
  w.value(tool_);
  if (!design_.empty()) {
    w.key("design");
    w.value(design_);
  }
  w.key("started_at");
  w.value(started_at_);
  w.key("wall_ms");
  w.value(static_cast<double>(wall_us() - start_us_) / 1000.0);
  for (const auto& [key, json] : sections_) {
    w.key(key);
    w.raw(json);
  }
  w.key("metrics");
  w.raw(metrics_to_json());
  w.end_object();
  return out;
}

void RunReport::write(std::ostream& out) const { out << to_json() << '\n'; }

void write_env_report(const char* tool) {
  const char* path = std::getenv("NONMASK_REPORT_OUT");
  if (path == nullptr || path[0] == '\0') return;
  std::ofstream out(path);
  if (!out) return;
  RunReport(tool).write(out);
}

}  // namespace nonmask::obs
