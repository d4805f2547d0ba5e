// The methodology as a tool: feed every shipped design through the
// pipeline the paper prescribes —
//   constraint graph -> classify -> Theorem 1 / Theorem 2 (/ Theorem 3
//   where the protocol supplies layers) -> exact model checker as ground
//   truth — and print a one-screen verdict table.
//
// Run:  ./build/examples/design_workbench
//
// With --synthesize the workbench runs the other direction: it strips each
// shipped design back to its candidate triple (closure actions +
// constraints) and asks the CEGIS synthesizer to re-derive the convergence
// actions from scratch, printing the winner, its certificate, and the
// pruning statistics. Flags: --seed=N, --max-candidates=N,
// --report-out=PATH (JSON array of per-target synthesis reports).
//
// Every exhaustive check runs on the checker engine (store/facade.hpp);
// --state-budget=N caps the state-space size (default
// NONMASK_STATE_BUDGET).
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "obs/dashboard.hpp"
#include "obs/telemetry.hpp"
#include "cgraph/theorems.hpp"
#include "synth/report.hpp"
#include "synth/synthesize.hpp"
#include "checker/convergence_check.hpp"
#include "checker/state_space.hpp"
#include "msg/mp_diffusing.hpp"
#include "msg/mp_token_ring.hpp"
#include "store/facade.hpp"
#include "protocols/atomic_action.hpp"
#include "protocols/coloring.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/leader_election.hpp"
#include "protocols/matching.hpp"
#include "protocols/running_example.hpp"
#include "protocols/aggregation.hpp"
#include "protocols/distributed_reset.hpp"
#include "protocols/independent_set.hpp"
#include "protocols/spanning_tree.hpp"
#include "protocols/tmr.hpp"
#include "protocols/token_ring.hpp"
#include "protocols/token_ring_small.hpp"

using namespace nonmask;

namespace {

struct Entry {
  Design design;
  std::vector<std::vector<std::size_t>> layers;  // optional, for Theorem 3
};

void report_row(const Entry& e, const store::StoreConfig& store_cfg) {
  const Design& d = e.design;
  StateSpace space(d.program, store_cfg.budget);

  std::string verdict = "—";
  std::string via = "—";
  const auto cg = infer_constraint_graph(d.program);
  if (cg.ok) {
    via = to_string(classify(cg.graph));
    auto r = validate_design(d, space);
    if (!r.applies && !e.layers.empty()) {
      r = validate_theorem3(d, e.layers, space);
      if (r.applies) via += " + layers";
    }
    verdict = r.applies ? r.theorem.substr(0, 9) : "none apply";
  } else {
    verdict = "graph: " + cg.error;
  }

  const auto exact =
      store::check_convergence_via(store_cfg, space, d.S(), d.T());
  std::cout << std::left << std::setw(34) << d.name << std::setw(23) << via
            << std::setw(14) << verdict << std::setw(11)
            << to_string(exact.verdict);
  if (exact.verdict == ConvergenceVerdict::kConverges) {
    std::cout << "worst " << exact.max_steps_to_S << " steps";
  } else if (exact.cycle) {
    std::cout << "cycle of " << exact.cycle->size();
    // The paper's computations are fair; check whether fairness rescues it.
    const auto fair = store::check_convergence_weakly_fair_via(
        store_cfg, space, d.S(), d.T());
    std::cout << "; weakly-fair: " << to_string(fair.verdict);
  } else if (exact.deadlock) {
    std::cout << "deadlock";
  }
  std::cout << "\n";
}

struct SynthTarget {
  std::string label;
  CandidateTriple candidate;
};

int run_synthesize(std::uint64_t seed, std::uint64_t max_candidates,
                   const std::string& report_out,
                   const store::StoreConfig& store_cfg) {
  std::cout << "design workbench — CEGIS synthesis of convergence actions\n"
            << "(seed " << seed << ", max " << max_candidates
            << " combinations per target)\n";

  std::vector<SynthTarget> targets;
  targets.push_back({"running-example",
                     make_running_example(RunningExampleVariant::kWriteYZ)
                         .candidate()});
  targets.push_back(
      {"diffusing-tree",
       make_diffusing(RootedTree::balanced(3, 2), false).design.candidate()});
  targets.push_back(
      {"token-ring", make_token_ring_bounded(3, 3, false).design.candidate()});
  targets.push_back(
      {"coloring", make_coloring(UndirectedGraph::cycle(4)).design.candidate()});

  std::string reports;
  int failures = 0;
  for (const auto& target : targets) {
    synth::SynthesisOptions opts;
    opts.seed = seed;
    opts.max_candidates = max_candidates;
    opts.design_name = target.label + "-synth";
    opts.store = store_cfg;
    const auto result = synth::synthesize(target.candidate, opts);

    std::cout << "\n=== " << target.label << " ===\n";
    if (!result.success) {
      std::cout << "  synthesis FAILED: " << result.failure << "\n";
      ++failures;
    } else {
      std::cout << "  winner (combination " << result.winner_index << " of "
                << result.total_combinations << "):\n";
      for (const auto& d : result.winner_descriptions) {
        std::cout << "    " << d << "\n";
      }
      std::cout << "  certificate: " << to_string(result.certification.method)
                << (result.certification.theorem_certified()
                        ? " (audit clean)"
                        : "")
                << "\n  exact checker: "
                << to_string(result.exact.convergence.verdict) << ", worst "
                << result.exact.convergence.max_steps_to_S << " steps to S\n";
    }
    const auto& st = result.stats;
    std::cout << "  evaluated " << st.evaluated << " combinations ("
              << st.pruned_by_seed << " seed-pruned, " << st.falsified
              << " falsified, " << st.exact_checks << " exact checks, "
              << st.seeds_collected << " seeds banked)\n";

    if (!reports.empty()) reports += ",\n";
    reports += synth::render_synthesis_report(result);
  }

  if (!report_out.empty()) {
    std::ofstream out(report_out);
    if (!out) {
      std::cerr << "cannot write " << report_out << "\n";
      return 1;
    }
    out << "[" << reports << "]\n";
    std::cout << "\nwrote " << report_out << "\n";
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool synthesize = false;
  std::uint64_t seed = 0x5e17ULL;
  std::uint64_t max_candidates = 50'000;
  std::string report_out;
  std::string dashboard_out;
  store::StoreConfig store_cfg = store::StoreConfig::from_env();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--synthesize") {
      synthesize = true;
    } else if (arg.rfind("--dashboard-out=", 0) == 0) {
      dashboard_out = arg.substr(16);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--max-candidates=", 0) == 0) {
      max_candidates = std::strtoull(arg.c_str() + 17, nullptr, 10);
    } else if (arg.rfind("--report-out=", 0) == 0) {
      report_out = arg.substr(13);
    } else if (arg.rfind("--state-budget=", 0) == 0) {
      store_cfg.budget = std::strtoull(arg.c_str() + 15, nullptr, 10);
    } else {
      std::cerr << "usage: design_workbench [--synthesize] [--seed=N]\n"
                   "         [--max-candidates=N] [--report-out=PATH]\n"
                   "         [--state-budget=N] [--dashboard-out=PATH]\n";
      return 2;
    }
  }
  obs::Telemetry::start_from_env();
  if (!dashboard_out.empty() && !obs::Telemetry::running()) {
    obs::Telemetry::start({});
  }
  const auto finish = [&](int rc) {
    obs::Telemetry::stop();
    if (!dashboard_out.empty()) {
      obs::DashboardSpec spec;
      spec.title = synthesize ? "design_workbench: CEGIS synthesis"
                              : "design_workbench: theorem validation";
      spec.subtitle = std::string("backend ") +
                      store::to_string(store_cfg.backend) + ", state budget " +
                      std::to_string(store_cfg.budget);
      spec.summary = {
          {"mode", synthesize ? "synthesize" : "validate"},
          {"backend", store::to_string(store_cfg.backend)},
          {"state budget", std::to_string(store_cfg.budget)},
          {"exit code", std::to_string(rc)},
      };
      spec.samples = obs::Telemetry::samples();
      obs::write_dashboard_file(dashboard_out, spec);
      std::cout << "dashboard written to " << dashboard_out << "\n";
    }
    return rc;
  };
  if (synthesize) {
    return finish(run_synthesize(seed, max_candidates, report_out, store_cfg));
  }
  std::cout << "design workbench — theorem validation vs exact checking\n\n"
            << std::left << std::setw(34) << "design" << std::setw(23)
            << "graph shape" << std::setw(14) << "validated by"
            << std::setw(11) << "checker" << "detail\n"
            << std::string(96, '-') << "\n";

  std::vector<Entry> entries;
  entries.push_back(
      {make_running_example(RunningExampleVariant::kWriteYZ), {}});
  entries.push_back(
      {make_running_example(RunningExampleVariant::kWriteXBoth), {}});
  entries.push_back(
      {make_running_example(RunningExampleVariant::kDecreaseX), {}});
  entries.push_back({make_diffusing(RootedTree::balanced(5, 2), false).design,
                     {}});
  entries.push_back({make_diffusing(RootedTree::balanced(5, 2), true).design,
                     {}});
  {
    auto tr = make_token_ring_bounded(3, 3, false);
    entries.push_back({tr.design, tr.layers});
  }
  entries.push_back({make_dijkstra_ring(4, 5).design, {}});
  entries.push_back({make_dijkstra_three_state(4).design, {}});
  entries.push_back({make_dijkstra_four_state(4).design, {}});
  entries.push_back(
      {make_distributed_reset(RootedTree::chain(3), 2, false).design, {}});
  {
    auto cd = make_coloring(UndirectedGraph::cycle(4));
    entries.push_back({cd.design, cd.layers});
  }
  entries.push_back({make_leader_election(4).design, {}});
  entries.push_back(
      {make_spanning_tree(UndirectedGraph::cycle(4)).design, {}});
  entries.push_back({make_matching(UndirectedGraph::path(4)).design, {}});
  entries.push_back(
      {make_independent_set(UndirectedGraph::cycle(5)).design, {}});
  entries.push_back({make_aggregation(RootedTree::chain(4), 2).design, {}});
  entries.push_back({make_atomic_action(2).design, {}});
  entries.push_back({make_mp_token_ring(2, 3).design, {}});
  entries.push_back({make_mp_diffusing(RootedTree::chain(3)).design, {}});

  for (const auto& e : entries) report_row(e, store_cfg);

  // Section 3's classification, applied mechanically.
  std::cout << "\nmasking vs nonmasking (Section 3 classification):\n";
  for (Design d : {make_tmr(true).design, make_tmr(false).design,
                   make_atomic_action(2).design}) {
    StateSpace space(d.program, store_cfg.budget);
    std::cout << "  " << std::left << std::setw(20) << d.name << " -> "
              << to_string(classify_tolerance(space, d)) << "\n";
  }

  std::cout << "\nreading the table: 'none apply' + checker 'converges' "
               "marks the\nsufficient-condition gap the paper's Section 7 "
               "discusses. 'violated'\nrows are deliberately broken or "
               "fairness-needing designs; for those,\nthe weakly-fair verdict "
               "shows whether the paper's fair computation\nmodel (which the "
               "theorem validators assume) restores convergence —\nit does "
               "for distributed reset, not for the broken running example.\n";
  return finish(0);
}
