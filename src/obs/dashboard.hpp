// Self-contained HTML run dashboard: folds the telemetry heartbeat series
// (obs/telemetry.hpp), the Chrome-trace span aggregate (obs/span.hpp), and
// a caller-supplied run summary into one dependency-free HTML file —
// inline SVG time-series (instantaneous states/s, cumulative states, RSS,
// frontier), counter, span and heartbeat tables, and a crosshair hover
// layer, with dark mode via CSS custom properties. Everything it plots
// comes from heartbeats, so a dashboard shows the metrics registry and
// the process's memory, nothing else. The file references nothing
// external: no scripts, fonts, images, or stylesheets are fetched, so it
// renders offline and can be archived as a CI artifact next to the JSONL
// it was built from.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"

namespace nonmask::obs {

/// A free-form table card (e.g. the certification-triage matrix): one
/// header row plus data rows, HTML-escaped by the renderer. Rows shorter
/// than `columns` render with trailing empty cells.
struct DashboardTable {
  std::string title;
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
};

/// Everything the renderer needs. `summary` rows become the run-summary
/// table (tool, design, backend, verdict, ...) and are HTML-escaped by the
/// renderer. `samples` is typically Telemetry::samples() taken after
/// Telemetry::stop(); with fewer than two samples the time-series cards
/// are omitted and the tiles/tables still render. The span table renders
/// whenever Trace holds events.
struct DashboardSpec {
  std::string title;
  std::string subtitle;
  std::vector<std::pair<std::string, std::string>> summary;
  std::vector<DashboardTable> tables;  ///< rendered after the summary card
  std::vector<HeartbeatSample> samples;
};

void write_dashboard_html(std::ostream& out, const DashboardSpec& spec);

/// Open `path` (truncating) and write the dashboard; throws on failure.
void write_dashboard_file(const std::string& path, const DashboardSpec& spec);

}  // namespace nonmask::obs
