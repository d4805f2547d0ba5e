// Scale probe for the checker engine: run the exhaustive convergence check
// on Dijkstra's K-state ring at a chosen size and report states/sec and
// peak RSS. This is the program behind EXPERIMENTS.md E13 (the token-ring N
// sweep) and the 10^8-state acceptance run for src/store/ — the dense
// serial oracle physically cannot finish the large points, which is the
// whole argument for the store.
//
// Usage:  store_scale [N] [K]
//   N   ring size                       (default: 4)
//   K   counter modulus, must be > N    (default: N + 1; K^N states)
//
// Flags:
//   --state-budget=M        StateSpace budget (default NONMASK_STATE_BUDGET)
//   --threads=T             worker threads for the parallel passes
//   --weakly-fair           run the Tarjan/SCC weakly-fair check instead of
//                           the unfair DFS (no max-steps-to-S in this mode)
//   --report-out=PATH       self-describing run-report JSON
//   --dashboard-out=PATH    self-contained HTML dashboard built from the
//                           telemetry heartbeat series (starts an
//                           in-memory sampler when NONMASK_TELEMETRY is
//                           not already active)
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "checker/state_space.hpp"
#include "obs/dashboard.hpp"
#include "obs/report.hpp"
#include "obs/rss.hpp"
#include "obs/telemetry.hpp"
#include "protocols/token_ring.hpp"
#include "store/facade.hpp"

using namespace nonmask;

int main(int argc, char** argv) {
  int n = 4;
  int k = 0;
  bool weakly_fair = false;
  std::string report_out;
  std::string dashboard_out;
  store::StoreConfig cfg = store::StoreConfig::from_env();
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: store_scale [N] [K] [--state-budget=M] "
                   "[--threads=T] [--weakly-fair]\n"
                   "         [--report-out=PATH] [--dashboard-out=PATH]\n";
      return 0;
    } else if (arg == "--weakly-fair") {
      weakly_fair = true;
    } else if (arg.rfind("--state-budget=", 0) == 0) {
      cfg.budget = std::strtoull(arg.c_str() + 15, nullptr, 10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      cfg.threads = static_cast<unsigned>(std::atoi(arg.c_str() + 10));
    } else if (arg.rfind("--report-out=", 0) == 0) {
      report_out = arg.substr(13);
    } else if (arg.rfind("--dashboard-out=", 0) == 0) {
      dashboard_out = arg.substr(16);
    } else if (positional == 0) {
      n = std::atoi(arg.c_str());
      ++positional;
    } else {
      k = std::atoi(arg.c_str());
      ++positional;
    }
  }
  if (k == 0) k = n + 1;
  if (n < 2 || k <= n) {
    std::cerr << "need N >= 2 and K > N (got N=" << n << ", K=" << k
              << ")\n";
    return 2;
  }

  // Heartbeat sampling: the env sink wins; a dashboard request without it
  // records in memory only.
  obs::Telemetry::start_from_env();
  if (!dashboard_out.empty() && !obs::Telemetry::running()) {
    obs::Telemetry::start({});
  }

  const auto tr = make_dijkstra_ring(n, k);
  const auto count = tr.design.program.state_count();
  if (!count || *count > cfg.budget) {
    std::cerr << "K^N = " << (count ? std::to_string(*count) : "overflow")
              << " exceeds the state budget " << cfg.budget
              << " (raise --state-budget / NONMASK_STATE_BUDGET)\n";
    return 2;
  }
  std::cout << "dijkstra ring N=" << n << " K=" << k << ": " << *count
            << " states"
            << (weakly_fair ? ", weakly-fair (Tarjan/SCC)" : "") << "\n";

  // Constructed before the check: the report's clock starts here, so its
  // wall_ms times the run.
  obs::RunReport doc("store_scale", tr.design.name);
  const StateSpace space(tr.design.program, cfg.budget);
  const auto t0 = std::chrono::steady_clock::now();
  const auto report =
      weakly_fair
          ? store::check_convergence_weakly_fair_via(cfg, space, tr.design.S(),
                                                     tr.design.T())
          : store::check_convergence_via(cfg, space, tr.design.S(),
                                         tr.design.T());
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double rate = static_cast<double>(space.size()) / secs;

  std::cout << "verdict: " << to_string(report.verdict);
  if (!weakly_fair) {
    // The SCC pass proves every fair computation converges but does not
    // compute per-state longest paths, so the worst-steps column only
    // exists in unfair mode.
    std::cout << ", worst " << report.max_steps_to_S << " steps to S";
  }
  std::cout << "\n"
            << "states in S: " << report.states_in_S
            << ", region: " << report.region_states
            << ", transitions: " << report.transitions << "\n"
            << "elapsed: " << secs << " s  (" << rate << " states/s)\n"
            << "peak RSS: " << obs::peak_rss_mb() << " MB\n";

  // Joins the sampler after one final heartbeat, so the last sample's
  // cumulative state count equals the report's "states".
  obs::Telemetry::stop();

  if (!report_out.empty()) {
    std::ofstream out(report_out);
    if (!out) {
      std::cerr << "cannot open " << report_out << " for writing\n";
      return 2;
    }
    doc.add_text("backend", store::to_string(cfg.backend));
    doc.add_text("mode", weakly_fair ? "weakly_fair" : "unfair");
    doc.add_number("state_budget", cfg.budget);
    doc.add_number("states", space.size());
    // The ¬S region the convergence traversal actually pushes — the number
    // a telemetry heartbeat's cumulative states counter converges to.
    doc.add_number("region_states", report.region_states);
    doc.add_number("elapsed_s", secs);
    doc.add_number("states_per_sec", rate);
    doc.add_number("peak_rss_mb", obs::peak_rss_mb());
    doc.add_text("verdict", to_string(report.verdict));
    if (!weakly_fair) doc.add_number("max_steps_to_S", report.max_steps_to_S);
    doc.add_number("transitions", report.transitions);
    doc.write(out);
    std::cout << "report written to " << report_out << "\n";
  }

  if (!dashboard_out.empty()) {
    obs::DashboardSpec spec;
    spec.title = "store_scale: " + tr.design.name;
    spec.subtitle = "N=" + std::to_string(n) + " K=" + std::to_string(k) +
                    ", " + std::to_string(space.size()) + " states, backend " +
                    store::to_string(cfg.backend) +
                    (weakly_fair ? ", weakly-fair (Tarjan/SCC)" : ", unfair");
    spec.summary = {
        {"backend", store::to_string(cfg.backend)},
        {"mode", weakly_fair ? "weakly fair" : "unfair"},
        {"states", std::to_string(space.size())},
        {"transitions", std::to_string(report.transitions)},
        {"verdict", to_string(report.verdict)},
        {"elapsed", std::to_string(secs) + " s"},
        {"throughput", std::to_string(static_cast<std::uint64_t>(rate)) +
                           " states/s"},
    };
    spec.samples = obs::Telemetry::samples();
    obs::write_dashboard_file(dashboard_out, spec);
    std::cout << "dashboard written to " << dashboard_out << "\n";
  }
  return report.verdict == ConvergenceVerdict::kConverges ? 0 : 1;
}
