#include "obs/dashboard.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "util/json.hpp"

namespace nonmask::obs {

namespace {

// ---------------------------------------------------------------------------
// Formatting helpers
// ---------------------------------------------------------------------------

std::string html_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

/// 1234 -> "1,234" (tables want exact values, tiles want short ones).
std::string with_commas(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  const std::size_t n = digits.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0 && (n - i) % 3 == 0) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

/// 612220032 -> "612.2M"; keeps small values exact.
std::string human_count(double v) {
  const double a = std::fabs(v);
  if (a >= 1e9) return fmt(v / 1e9, a >= 1e10 ? 0 : 1) + "B";
  if (a >= 1e6) return fmt(v / 1e6, a >= 1e7 ? 0 : 1) + "M";
  if (a >= 1e3) return fmt(v / 1e3, a >= 1e4 ? 0 : 1) + "K";
  if (a >= 10 || v == std::floor(v)) return fmt(v, 0);
  return fmt(v, 1);
}

std::string human_bytes(double v) {
  if (v >= 1024.0 * 1024.0 * 1024.0) {
    return fmt(v / (1024.0 * 1024.0 * 1024.0), 1) + " GiB";
  }
  if (v >= 1024.0 * 1024.0) return fmt(v / (1024.0 * 1024.0), 1) + " MiB";
  if (v >= 1024.0) return fmt(v / 1024.0, 1) + " KiB";
  return fmt(v, 0) + " B";
}

std::string fmt_duration_ms(std::uint64_t ms) {
  if (ms < 1000) return std::to_string(ms) + " ms";
  const double s = static_cast<double>(ms) / 1000.0;
  if (s < 120.0) return fmt(s, 1) + " s";
  const std::uint64_t whole_s = ms / 1000;
  return std::to_string(whole_s / 60) + "m " + std::to_string(whole_s % 60) +
         "s";
}

/// Axis label for a time value in seconds.
std::string fmt_time_axis(double s) {
  if (s >= 120.0) {
    const std::uint64_t whole = static_cast<std::uint64_t>(s + 0.5);
    if (whole % 60 == 0) return std::to_string(whole / 60) + "m";
    return std::to_string(whole / 60) + "m" + std::to_string(whole % 60) + "s";
  }
  if (s >= 10.0 || s == std::floor(s)) return fmt(s, 0) + "s";
  return fmt(s, 1) + "s";
}

// ---------------------------------------------------------------------------
// Chart geometry
// ---------------------------------------------------------------------------

constexpr double kW = 640.0;   ///< SVG viewBox width
constexpr double kH = 230.0;   ///< SVG viewBox height
constexpr double kML = 56.0;   ///< left margin (y tick labels)
constexpr double kMR = 14.0;
constexpr double kMT = 14.0;
constexpr double kMB = 30.0;   ///< bottom margin (x tick labels)
constexpr double kPlotW = kW - kML - kMR;
constexpr double kPlotH = kH - kMT - kMB;

/// Round a step up to the nearest 1/2/5 x 10^k, so axis ticks land on
/// round numbers.
double nice_step(double raw) {
  if (raw <= 0.0) return 1.0;
  const double mag = std::pow(10.0, std::floor(std::log10(raw)));
  const double frac = raw / mag;
  if (frac <= 1.0) return mag;
  if (frac <= 2.0) return 2.0 * mag;
  if (frac <= 5.0) return 5.0 * mag;
  return 10.0 * mag;
}

/// Ticks from 0 up to (at least) hi.
std::vector<double> nice_ticks(double hi, int target) {
  if (hi <= 0.0) hi = 1.0;
  const double step = nice_step(hi / target);
  std::vector<double> ticks;
  for (double t = 0.0; t <= hi + step * 0.5; t += step) ticks.push_back(t);
  return ticks;
}

enum class Unit { kCount, kRate, kMegabytes };

const char* unit_tag(Unit u) {
  switch (u) {
    case Unit::kRate: return "rate";
    case Unit::kMegabytes: return "mb";
    default: return "count";
  }
}

struct ChartSeries {
  std::string name;
  std::vector<double> y;
};

struct ChartDef {
  std::string title;
  Unit unit = Unit::kCount;
  std::vector<ChartSeries> series;  ///< 1 or 2; colors assigned in order
};

/// One time-series card: optional legend, inline SVG (gridlines, area wash
/// for single series, 2px lines), an embedded JSON data block for the hover
/// layer, and geometry data-attributes the script uses to map mouse x back
/// to a sample index.
void render_line_chart(std::ostream& out, const ChartDef& def,
                       const std::vector<double>& xs) {
  double ymax = 0.0;
  for (const ChartSeries& s : def.series) {
    for (double v : s.y) ymax = std::max(ymax, v);
  }
  const std::vector<double> yticks = nice_ticks(ymax, 4);
  const double ytop = yticks.back();
  const double x0 = xs.front();
  const double x1 = std::max(xs.back(), x0 + 1e-9);

  const auto px = [&](double x) {
    return kML + (x - x0) / (x1 - x0) * kPlotW;
  };
  const auto py = [&](double y) {
    return kMT + kPlotH - (ytop <= 0.0 ? 0.0 : y / ytop * kPlotH);
  };

  out << "<div class=\"card chart\" data-unit=\"" << unit_tag(def.unit)
      << "\">\n";
  out << "<h3>" << html_escape(def.title) << "</h3>\n";
  if (def.series.size() >= 2) {
    out << "<div class=\"legend\">";
    for (std::size_t i = 0; i < def.series.size(); ++i) {
      out << "<span><i class=\"key s" << (i + 1) << "\"></i>"
          << html_escape(def.series[i].name) << "</span>";
    }
    out << "</div>\n";
  }
  out << "<div class=\"plot\"><svg viewBox=\"0 0 " << fmt(kW, 0) << ' '
      << fmt(kH, 0) << "\" data-ml=\"" << fmt(kML, 0) << "\" data-mt=\""
      << fmt(kMT, 0) << "\" data-pw=\"" << fmt(kPlotW, 0) << "\" data-ph=\""
      << fmt(kPlotH, 0) << "\" data-x0=\"" << fmt(x0, 3) << "\" data-x1=\""
      << fmt(x1, 3) << "\" data-ytop=\"" << fmt(ytop, 6)
      << "\" role=\"img\" aria-label=\"" << html_escape(def.title) << "\">\n";

  // Horizontal hairline gridlines + y tick labels (baseline heavier).
  for (double t : yticks) {
    const double y = py(t);
    out << "<line class=\"" << (t == 0.0 ? "baseline" : "grid") << "\" x1=\""
        << fmt(kML, 1) << "\" y1=\"" << fmt(y, 1) << "\" x2=\""
        << fmt(kW - kMR, 1) << "\" y2=\"" << fmt(y, 1) << "\"/>\n";
    out << "<text class=\"tick\" x=\"" << fmt(kML - 6, 1) << "\" y=\""
        << fmt(y + 3.5, 1) << "\" text-anchor=\"end\">"
        << html_escape(human_count(t))
        << "</text>\n";
  }
  // X ticks: round time values.
  const std::vector<double> xticks_all = nice_ticks(x1 - x0, 5);
  for (double t : xticks_all) {
    const double xv = x0 + t;
    if (xv > x1 + 1e-9) continue;
    out << "<text class=\"tick\" x=\"" << fmt(px(xv), 1) << "\" y=\""
        << fmt(kH - kMB + 16, 1) << "\" text-anchor=\"middle\">"
        << html_escape(fmt_time_axis(xv)) << "</text>\n";
  }

  // Area wash under a single series only (two washes would occlude).
  if (def.series.size() == 1) {
    const ChartSeries& s = def.series.front();
    out << "<path class=\"wash s1\" d=\"M" << fmt(px(xs.front()), 1) << ','
        << fmt(py(0.0), 1);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      out << " L" << fmt(px(xs[i]), 1) << ',' << fmt(py(s.y[i]), 1);
    }
    out << " L" << fmt(px(xs.back()), 1) << ',' << fmt(py(0.0), 1)
        << " Z\"/>\n";
  }
  for (std::size_t si = 0; si < def.series.size(); ++si) {
    out << "<polyline class=\"line s" << (si + 1) << "\" points=\"";
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i != 0) out << ' ';
      out << fmt(px(xs[i]), 1) << ',' << fmt(py(def.series[si].y[i]), 1);
    }
    out << "\"/>\n";
  }

  // Hover layer targets, positioned by the inline script.
  out << "<line class=\"cross\" y1=\"" << fmt(kMT, 1) << "\" y2=\""
      << fmt(kMT + kPlotH, 1) << "\" style=\"display:none\"/>\n";
  for (std::size_t si = 0; si < def.series.size(); ++si) {
    out << "<circle class=\"dot s" << (si + 1)
        << "\" r=\"4\" style=\"display:none\"/>\n";
  }
  out << "</svg><div class=\"tip\" style=\"display:none\"></div></div>\n";

  // Embedded data for the hover layer.
  out << "<script type=\"application/json\" class=\"d\">{\"x\":[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i != 0) out << ',';
    out << fmt(xs[i], 3);
  }
  out << "],\"series\":[";
  for (std::size_t si = 0; si < def.series.size(); ++si) {
    if (si != 0) out << ',';
    out << "{\"name\":" << util::json_quote(def.series[si].name)
        << ",\"y\":[";
    for (std::size_t i = 0; i < def.series[si].y.size(); ++i) {
      if (i != 0) out << ',';
      out << fmt(def.series[si].y[i], 3);
    }
    out << "]}";
  }
  out << "]}</script>\n</div>\n";
}

// ---------------------------------------------------------------------------
// Static page chrome
// ---------------------------------------------------------------------------

// CSS custom properties carry the palette; the dark block restates them
// under both the user-agent media query and an explicit [data-theme="dark"]
// scope. Series/text/grid tokens follow the repo dataviz conventions:
// text wears text tokens (never series color), hairline gridlines, 2px
// lines, ~10% area wash.
const char kCss[] = R"CSS(
:root {
  --surface:#fcfcfb; --card:#ffffff; --text:#0b0b0b; --text2:#52514e;
  --muted:#898781; --grid:#e1e0d9; --baseline:#c3c2b7;
  --s1:#2a78d6; --s2:#eb6834;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface:#1a1a19; --card:#222221; --text:#ffffff; --text2:#c3c2b7;
    --muted:#898781; --grid:#2c2c2a; --baseline:#383835;
    --s1:#3987e5; --s2:#d95926;
  }
}
[data-theme="dark"] {
  --surface:#1a1a19; --card:#222221; --text:#ffffff; --text2:#c3c2b7;
  --muted:#898781; --grid:#2c2c2a; --baseline:#383835;
  --s1:#3987e5; --s2:#d95926;
}
* { box-sizing:border-box; }
body {
  margin:0; padding:24px; background:var(--surface); color:var(--text);
  font:14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width:1360px; margin:0 auto; }
h1 { font-size:20px; margin:0 0 2px; }
h3 { font-size:13px; font-weight:600; margin:0 0 8px; color:var(--text); }
p.sub { color:var(--text2); margin:0 0 16px; font-size:13px; }
.card p.sub { margin:-4px 0 8px; font-size:12px; }
.tiles { display:grid; grid-template-columns:repeat(auto-fit,minmax(180px,1fr));
  gap:12px; margin:16px 0; }
.tile { background:var(--card); border:1px solid var(--grid);
  border-radius:8px; padding:12px 14px; }
.tile .v { font-size:24px; font-weight:650; letter-spacing:-0.01em; }
.tile .l { color:var(--text2); font-size:12px; margin-top:2px; }
.grid2 { display:grid; grid-template-columns:repeat(auto-fit,minmax(420px,1fr));
  gap:12px; }
.card { background:var(--card); border:1px solid var(--grid);
  border-radius:8px; padding:14px; margin:0 0 12px; }
.plot { position:relative; }
svg { display:block; width:100%; height:auto; }
svg .grid { stroke:var(--grid); stroke-width:1; }
svg .baseline { stroke:var(--baseline); stroke-width:1; }
svg .tick { fill:var(--muted); font-size:10px;
  font-family:system-ui, -apple-system, "Segoe UI", sans-serif; }
svg .line { fill:none; stroke-width:2; stroke-linejoin:round; }
svg .line.s1, svg .dot.s1 { stroke:var(--s1); }
svg .line.s2, svg .dot.s2 { stroke:var(--s2); }
svg .dot { fill:var(--card); stroke-width:2; }
svg .wash.s1 { fill:var(--s1); opacity:0.1; }
svg .cross { stroke:var(--baseline); stroke-width:1; }
.legend { display:flex; gap:14px; font-size:12px; color:var(--text2);
  margin:0 0 6px; }
.legend .key { display:inline-block; width:10px; height:10px;
  border-radius:3px; margin-right:5px; vertical-align:-1px; }
.legend .key.s1 { background:var(--s1); }
.legend .key.s2 { background:var(--s2); }
.tip { position:absolute; pointer-events:none; background:var(--card);
  border:1px solid var(--baseline); border-radius:6px; padding:6px 9px;
  font-size:12px; color:var(--text); box-shadow:0 2px 8px rgba(0,0,0,0.12);
  white-space:nowrap; z-index:2; }
.tip .t { color:var(--text2); }
table { border-collapse:collapse; width:100%; font-size:13px; }
th { text-align:left; color:var(--text2); font-weight:600;
  border-bottom:1px solid var(--baseline); padding:5px 10px 5px 0; }
td { border-bottom:1px solid var(--grid); padding:5px 10px 5px 0;
  font-variant-numeric:tabular-nums; }
td.num, th.num { text-align:right; }
details summary { cursor:pointer; color:var(--text2); font-size:13px;
  margin:4px 0 8px; }
footer { color:var(--muted); font-size:12px; margin:18px 0 4px; }
)CSS";

// Hover layer: per chart card, nearest-sample crosshair + tooltip. Data
// and pixel geometry are embedded by the renderer; no network, no
// libraries.
const char kJs[] = R"JS(
(function () {
  function fmtCount(v) {
    var a = Math.abs(v);
    if (a >= 1e9) return (v / 1e9).toFixed(a >= 1e10 ? 0 : 1) + 'B';
    if (a >= 1e6) return (v / 1e6).toFixed(a >= 1e7 ? 0 : 1) + 'M';
    if (a >= 1e3) return (v / 1e3).toFixed(a >= 1e4 ? 0 : 1) + 'K';
    return a >= 10 || v === Math.floor(v) ? v.toFixed(0) : v.toFixed(1);
  }
  function fmtVal(v, unit) {
    if (unit === 'rate') return fmtCount(v) + '/s';
    if (unit === 'mb') return v.toFixed(v >= 100 ? 0 : 1) + ' MB';
    return fmtCount(v);
  }
  function fmtTime(s) {
    if (s >= 120) {
      var w = Math.round(s);
      return Math.floor(w / 60) + 'm' + (w % 60 ? (w % 60) + 's' : '');
    }
    return (s >= 10 ? s.toFixed(0) : s.toFixed(1)) + 's';
  }
  document.querySelectorAll('.chart').forEach(function (card) {
    var dataEl = card.querySelector('script.d');
    var svg = card.querySelector('svg');
    var tip = card.querySelector('.tip');
    if (!dataEl || !svg || !tip) return;
    var data = JSON.parse(dataEl.textContent);
    var unit = card.dataset.unit;
    var ml = +svg.dataset.ml, mt = +svg.dataset.mt;
    var pw = +svg.dataset.pw, ph = +svg.dataset.ph;
    var x0 = +svg.dataset.x0, x1 = +svg.dataset.x1;
    var ytop = +svg.dataset.ytop;
    var cross = svg.querySelector('.cross');
    var dots = svg.querySelectorAll('.dot');
    svg.addEventListener('mousemove', function (ev) {
      var rect = svg.getBoundingClientRect();
      var vx = (ev.clientX - rect.left) / rect.width * 640;
      var t = x0 + (vx - ml) / pw * (x1 - x0);
      var best = 0, bestD = Infinity;
      for (var i = 0; i < data.x.length; i++) {
        var d = Math.abs(data.x[i] - t);
        if (d < bestD) { bestD = d; best = i; }
      }
      var cx = ml + (data.x[best] - x0) / (x1 - x0) * pw;
      cross.setAttribute('x1', cx);
      cross.setAttribute('x2', cx);
      cross.style.display = '';
      var html = '<span class="t">' + fmtTime(data.x[best]) + '</span>';
      data.series.forEach(function (s, si) {
        var v = s.y[best];
        var cy = mt + ph - (ytop > 0 ? v / ytop * ph : 0);
        if (dots[si]) {
          dots[si].setAttribute('cx', cx);
          dots[si].setAttribute('cy', cy);
          dots[si].style.display = '';
        }
        html += '<br>' + (data.series.length > 1 ? s.name + ': ' : '') +
                fmtVal(v, unit);
      });
      tip.innerHTML = html;
      tip.style.display = '';
      var left = cx / 640 * rect.width + 12;
      if (left > rect.width - 140) left -= 160;
      tip.style.left = left + 'px';
      tip.style.top = '10px';
    });
    svg.addEventListener('mouseleave', function () {
      cross.style.display = 'none';
      dots.forEach(function (d) { d.style.display = 'none'; });
      tip.style.display = 'none';
    });
  });
})();
)JS";

void render_tile(std::ostream& out, const std::string& value,
                 const std::string& label) {
  out << "<div class=\"tile\"><div class=\"v\">" << html_escape(value)
      << "</div><div class=\"l\">" << html_escape(label) << "</div></div>\n";
}

void render_kv_table(
    std::ostream& out, const char* heading,
    const std::vector<std::pair<std::string, std::string>>& rows) {
  out << "<div class=\"card\">\n<h3>" << heading << "</h3>\n<table>\n";
  for (const auto& [k, v] : rows) {
    out << "<tr><td>" << html_escape(k) << "</td><td class=\"num\">"
        << html_escape(v) << "</td></tr>\n";
  }
  out << "</table>\n</div>\n";
}

void render_data_table(std::ostream& out, const DashboardTable& table) {
  out << "<div class=\"card\">\n<h3>" << html_escape(table.title)
      << "</h3>\n<table>\n<tr>";
  for (const std::string& c : table.columns) {
    out << "<th>" << html_escape(c) << "</th>";
  }
  out << "</tr>\n";
  for (const auto& row : table.rows) {
    out << "<tr>";
    for (std::size_t i = 0; i < table.columns.size(); ++i) {
      out << "<td>" << (i < row.size() ? html_escape(row[i]) : "") << "</td>";
    }
    out << "</tr>\n";
  }
  out << "</table>\n</div>\n";
}

void render_trace_table(std::ostream& out) {
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_us = 0;
    std::uint64_t max_us = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const TraceEvent& e : Trace::events()) {
    Agg& a = by_name[e.name];
    ++a.count;
    a.total_us += e.dur_us;
    a.max_us = std::max(a.max_us, e.dur_us);
  }
  if (by_name.empty()) return;
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(),
                                                by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });
  out << "<div class=\"card\">\n<h3>Trace spans</h3>\n<table>\n"
      << "<tr><th>span</th><th class=\"num\">count</th>"
      << "<th class=\"num\">total</th><th class=\"num\">mean</th>"
      << "<th class=\"num\">max</th></tr>\n";
  for (const auto& [name, a] : rows) {
    out << "<tr><td>" << html_escape(name) << "</td><td class=\"num\">"
        << with_commas(a.count) << "</td><td class=\"num\">"
        << fmt(static_cast<double>(a.total_us) / 1000.0, 1)
        << " ms</td><td class=\"num\">"
        << fmt(static_cast<double>(a.total_us) / 1000.0 /
                   static_cast<double>(a.count),
               2)
        << " ms</td><td class=\"num\">"
        << fmt(static_cast<double>(a.max_us) / 1000.0, 1)
        << " ms</td></tr>\n";
  }
  out << "</table>\n</div>\n";
}

}  // namespace

void write_dashboard_html(std::ostream& out, const DashboardSpec& spec) {
  const std::vector<HeartbeatSample>& samples = spec.samples;
  const HeartbeatSample* last = samples.empty() ? nullptr : &samples.back();

  out << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
      << "<meta charset=\"utf-8\">\n"
      << "<meta name=\"viewport\" content=\"width=device-width, "
         "initial-scale=1\">\n"
      << "<title>" << html_escape(spec.title) << "</title>\n"
      << "<style>" << kCss << "</style>\n</head>\n<body>\n<main>\n";
  out << "<h1>" << html_escape(spec.title) << "</h1>\n";
  if (!spec.subtitle.empty()) {
    out << "<p class=\"sub\">" << html_escape(spec.subtitle) << "</p>\n";
  }

  // Stat tiles.
  out << "<div class=\"tiles\">\n";
  if (last != nullptr) {
    double peak_rate = 0.0;
    for (const HeartbeatSample& s : samples) {
      peak_rate = std::max(peak_rate, s.states_per_sec);
    }
    render_tile(out, human_count(static_cast<double>(last->states_explored)),
                "states explored");
    render_tile(out, human_count(peak_rate) + "/s", "peak throughput");
    render_tile(out, fmt(last->peak_rss_mb, last->peak_rss_mb >= 100 ? 0 : 1) +
                         " MB",
                "peak RSS");
    render_tile(out, fmt_duration_ms(last->t_ms), "sampled wall time");
  } else {
    render_tile(out, "—", "no heartbeat samples recorded");
  }
  out << "</div>\n";

  // Time-series cards need at least two heartbeats.
  if (samples.size() >= 2) {
    std::vector<double> xs;
    xs.reserve(samples.size());
    for (const HeartbeatSample& s : samples) {
      xs.push_back(static_cast<double>(s.t_ms) / 1000.0);
    }
    const auto collect = [&](auto&& get) {
      std::vector<double> ys;
      ys.reserve(samples.size());
      for (const HeartbeatSample& s : samples) {
        ys.push_back(static_cast<double>(get(s)));
      }
      return ys;
    };
    const auto any_nonzero = [](const std::vector<double>& ys) {
      return std::any_of(ys.begin(), ys.end(),
                         [](double v) { return v > 0.0; });
    };

    out << "<div class=\"grid2\">\n";
    render_line_chart(
        out,
        {"Instantaneous throughput",
         Unit::kRate,
         {{"states/s",
           collect([](const HeartbeatSample& s) { return s.states_per_sec; })}}},
        xs);
    render_line_chart(
        out,
        {"Cumulative states explored",
         Unit::kCount,
         {{"states", collect([](const HeartbeatSample& s) {
             return s.states_explored;
           })}}},
        xs);
    render_line_chart(
        out,
        {"Resident memory",
         Unit::kMegabytes,
         {{"current",
           collect([](const HeartbeatSample& s) { return s.rss_mb; })},
          {"peak",
           collect([](const HeartbeatSample& s) { return s.peak_rss_mb; })}}},
        xs);
    const std::vector<double> frontier =
        collect([](const HeartbeatSample& s) { return s.frontier; });
    if (any_nonzero(frontier)) {
      render_line_chart(out,
                        {"Frontier size", Unit::kCount, {{"states", frontier}}},
                        xs);
    }
    out << "</div>\n";
  }

  out << "<div class=\"grid2\">\n";
  if (!spec.summary.empty()) render_kv_table(out, "Run summary", spec.summary);
  for (const DashboardTable& table : spec.tables) {
    render_data_table(out, table);
  }
  if (last != nullptr) {
    std::vector<std::pair<std::string, std::string>> rows;
    for (const auto& [name, value] : last->counters) {
      rows.emplace_back(std::string(name),
                        name.ends_with("_bytes")
                            ? human_bytes(static_cast<double>(value))
                            : with_commas(value));
    }
    rows.emplace_back("live workers at stop", std::to_string(last->workers));
    render_kv_table(out, "Counters (final heartbeat)", rows);
  }
  render_trace_table(out);
  out << "</div>\n";

  // Table-view twin of the time-series charts.
  if (!samples.empty()) {
    out << "<details><summary>Heartbeat table (" << samples.size()
        << " samples)</summary>\n<div class=\"card\">\n<table>\n"
        << "<tr><th class=\"num\">#</th><th class=\"num\">t</th>"
        << "<th class=\"num\">states</th><th class=\"num\">states/s</th>"
        << "<th class=\"num\">frontier</th><th class=\"num\">RSS</th>"
        << "<th class=\"num\">workers</th></tr>\n";
    for (const HeartbeatSample& s : samples) {
      out << "<tr><td class=\"num\">" << s.seq << "</td><td class=\"num\">"
          << fmt_duration_ms(s.t_ms) << "</td><td class=\"num\">"
          << with_commas(s.states_explored) << "</td><td class=\"num\">"
          << human_count(s.states_per_sec) << "</td><td class=\"num\">"
          << with_commas(s.frontier) << "</td><td class=\"num\">"
          << fmt(s.rss_mb, 1) << " MB</td><td class=\"num\">" << s.workers
          << "</td></tr>\n";
    }
    out << "</table>\n</div>\n</details>\n";
  }

  out << "<footer>Generated by nonmask telemetry; self-contained (no "
         "external resources).</footer>\n";
  out << "</main>\n<script>" << kJs << "</script>\n</body>\n</html>\n";
}

void write_dashboard_file(const std::string& path, const DashboardSpec& spec) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("write_dashboard_file: cannot open " + path);
  }
  write_dashboard_html(out, spec);
}

}  // namespace nonmask::obs
