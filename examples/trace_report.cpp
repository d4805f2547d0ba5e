// Observability demo CLI: run the checker engine's passes (closure,
// convergence, reachability) and a small trial campaign for one shipped
// design with the telemetry subsystem switched on, then export what was
// recorded —
//   --trace-out    Chrome trace-event JSON (open in chrome://tracing or
//                  https://ui.perfetto.dev); contains one "store.*.chunk"
//                  span per worker chunk, so worker parallelism is visible
//   --metrics-out  the metrics-registry snapshot as JSON
//   --report-out   a self-describing RunReport JSON (checker reports,
//                  campaign SampleStats, metrics snapshot, wall time)
// With NONMASK_TELEMETRY=<jsonl-path> set, the telemetry sampler writes
// its live heartbeats there while the passes run.
//
// Usage:  trace_report [--design=NAME] [--threads=N] [--grain=N]
//                      [--trials=N] [--trace-out=PATH] [--metrics-out=PATH]
//                      [--report-out=PATH]
//   design  diffusing | chain | dijkstra | bounded | coloring
//           (default: dijkstra — a 6-node, K=6 ring, 46656 states)
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "checker/fault_span.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "parallel/campaign.hpp"
#include "parallel/thread_pool.hpp"
#include "protocols/coloring.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/token_ring.hpp"
#include "store/facade.hpp"
#include "util/rng.hpp"

using namespace nonmask;

namespace {

void print_usage(std::ostream& out) {
  out << "usage: trace_report [--design=NAME] [--threads=N] [--grain=N]\n"
         "                    [--trials=N] [--trace-out=PATH]\n"
         "                    [--metrics-out=PATH] [--report-out=PATH]\n"
         "                    [--help]\n"
         "  --design       diffusing | chain | dijkstra | bounded | coloring"
         " (default dijkstra)\n"
         "  --threads      worker threads; 0 = NONMASK_THREADS / hardware"
         " (default 0)\n"
         "  --grain        scan chunk size in state codes (default 16384)\n"
         "  --trials       campaign trials (default 16)\n"
         "  --trace-out    write Chrome trace-event JSON here\n"
         "  --metrics-out  write the metrics snapshot JSON here\n"
         "  --report-out   write the full run report JSON here\n"
         "NONMASK_TELEMETRY=PATH streams live heartbeats to PATH (JSONL).\n";
}

/// Exhaustively checkable instances — smaller than parallel_campaign's
/// simulation-only instances because the checks enumerate every state.
Design make_design(const std::string& name) {
  if (name == "diffusing") {
    return make_diffusing(RootedTree::balanced(7, 2), true).design;
  }
  if (name == "chain") {
    return make_diffusing(RootedTree::chain(8), true).design;
  }
  if (name == "dijkstra") {
    return make_dijkstra_ring(6, 6).design;  // 6^6 = 46656 states
  }
  if (name == "bounded") {
    return make_token_ring_bounded(5, 4, true).design;
  }
  if (name == "coloring") {
    Rng rng(7);
    return make_coloring(UndirectedGraph::random_connected(8, 12, rng)).design;
  }
  std::cerr << "unknown design '" << name
            << "' (want diffusing | chain | dijkstra | bounded | coloring)\n";
  std::exit(2);
}

bool flag_value(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string design_name = "dijkstra";
  std::string trace_out, metrics_out, report_out;
  unsigned threads = 0;
  std::uint64_t grain = 1 << 14;
  std::size_t trials = 16;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else if (flag_value(arg, "--design", &value)) {
      design_name = value;
    } else if (flag_value(arg, "--threads", &value)) {
      threads = static_cast<unsigned>(std::atoi(value.c_str()));
    } else if (flag_value(arg, "--grain", &value)) {
      grain = static_cast<std::uint64_t>(std::atoll(value.c_str()));
    } else if (flag_value(arg, "--trials", &value)) {
      trials = static_cast<std::size_t>(std::atoll(value.c_str()));
    } else if (flag_value(arg, "--trace-out", &value)) {
      trace_out = value;
    } else if (flag_value(arg, "--metrics-out", &value)) {
      metrics_out = value;
    } else if (flag_value(arg, "--report-out", &value)) {
      report_out = value;
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      print_usage(std::cerr);
      return 2;
    }
  }

  obs::Metrics::set_enabled(true);
  if (!trace_out.empty()) obs::Trace::set_enabled(true);
  obs::Telemetry::start_from_env();

  const Design design = make_design(design_name);
  const StateSpace space(design.program);
  store::StoreConfig engine;
  engine.threads = threads;
  engine.grain = grain;
  const unsigned resolved = threads == 0 ? default_threads() : threads;
  std::cout << "trace_report: " << design.name << ", " << space.size()
            << " states, " << resolved << " thread(s), grain " << grain
            << "\n";

  obs::RunReport report("trace_report", design.name);
  report.add_number("states", space.size());
  report.add_number("threads", std::uint64_t{resolved});

  const auto closure = store::check_closed_via(engine, space, design.S());
  std::cout << "closure(S): " << (closure.closed ? "closed" : "NOT closed")
            << " (" << closure.transitions_checked << " transitions)\n";
  report.add("closure_S", obs::to_json(closure));

  const auto convergence =
      store::check_convergence_via(engine, space, design.S(), design.T());
  std::cout << "convergence(S,T): " << to_string(convergence.verdict) << " ("
            << convergence.region_states << " region states, worst case "
            << convergence.max_steps_to_S << " steps)\n";
  report.add("convergence", obs::to_json(convergence));

  const auto reach = store::compute_reachable_via(
      engine, space, design.S(), non_fault_actions(design.program));
  std::cout << "reach(S): " << reach.size() << " states\n";
  report.add_number("reach_S_states", reach.size());

  ConvergenceExperiment config;
  config.trials = trials;
  config.seed = 1;
  CampaignOptions copts;
  copts.threads = threads;
  const auto campaign = run_campaign(design, config, copts);
  std::cout << "campaign: " << trials << " trials, "
            << 100.0 * campaign.aggregate.converged_fraction
            << "% converged\n";
  report.add("campaign", obs::to_json(campaign.aggregate));

  // Final heartbeat first, so it counts every pass the outputs report.
  obs::Telemetry::stop();

  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::cerr << "cannot open " << trace_out << " for writing\n";
      return 2;
    }
    obs::Trace::write_chrome_trace(out);
    std::cout << obs::Trace::event_count() << " trace events written to "
              << trace_out << "\n";
    obs::Trace::write_flame_summary(std::cout);
  }
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::cerr << "cannot open " << metrics_out << " for writing\n";
      return 2;
    }
    out << obs::metrics_to_json() << "\n";
    std::cout << "metrics snapshot written to " << metrics_out << "\n";
  }
  if (!report_out.empty()) {
    std::ofstream out(report_out);
    if (!out) {
      std::cerr << "cannot open " << report_out << " for writing\n";
      return 2;
    }
    report.write(out);
    std::cout << "run report written to " << report_out << "\n";
  }
  return 0;
}
