// Adversarial fault-placement demo: pit the adversary (src/resilience/)
// against the benign random-placement baseline on the shipped stabilizing
// protocols, and print the worst placement it finds next to a convergence-
// time histogram of both distributions.
//
// Usage:  adversary_demo [design] [k] [seed] [trials]
//   design   ring | tree | both   (default: both)
//   k        corruption budget, 0 = all variables   (default: 2)
//   seed     adversary + baseline master seed       (default: 1)
//   trials   baseline sample size                   (default: 64)
//
// Flags:
//   --worst-out=PATH   write the worst traces found as one JSON document
//                      (uploaded as a CI artifact by .github/workflows)
//   --state-budget=N   exhaustive-mode cutoff: the adversary switches to
//                      hill-climbing above N states (default from
//                      NONMASK_STATE_BUDGET, else 2^20)
//   --dashboard-out=PATH  self-contained HTML dashboard from the telemetry
//                      heartbeat series (in-memory sampler unless
//                      NONMASK_TELEMETRY is set)
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "obs/dashboard.hpp"
#include "obs/telemetry.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/token_ring.hpp"
#include "resilience/adversary.hpp"
#include "store/config.hpp"

using namespace nonmask;

namespace {

bool flag_value(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

std::uint64_t median_of(std::vector<std::uint64_t> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// One-row ASCII histogram: bucket counts rendered as bar lengths.
void print_histogram(const char* label,
                     const std::vector<std::uint64_t>& samples,
                     std::uint64_t lo, std::uint64_t hi) {
  constexpr int kBuckets = 8;
  constexpr int kBarWidth = 32;
  const std::uint64_t span = std::max<std::uint64_t>(hi - lo, 1);
  std::vector<int> counts(kBuckets, 0);
  for (std::uint64_t s : samples) {
    const std::uint64_t clamped = std::min(std::max(s, lo), hi);
    int b = static_cast<int>(((clamped - lo) * kBuckets) / (span + 1));
    counts[std::min(b, kBuckets - 1)] += 1;
  }
  const int peak = *std::max_element(counts.begin(), counts.end());
  std::cout << "  " << label << " (n=" << samples.size() << "):\n";
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t from = lo + (span * static_cast<std::uint64_t>(b)) /
                                        kBuckets;
    const std::uint64_t to =
        lo + (span * static_cast<std::uint64_t>(b + 1)) / kBuckets;
    const int bar =
        peak == 0 ? 0 : (counts[b] * kBarWidth + peak - 1) / peak;
    std::cout << "    [" << std::setw(6) << from << "," << std::setw(6) << to
              << ") " << std::setw(4) << counts[b] << " "
              << std::string(static_cast<std::size_t>(bar), '#') << "\n";
  }
}

struct DemoResult {
  std::string json;
};

DemoResult run_demo(const Design& design, const AdversaryOptions& opts,
                    std::size_t trials) {
  std::cout << "== " << design.name << " ==\n";
  const AdversaryResult result = find_worst_placement(design, opts);
  const auto baseline = random_placement_baseline(design, opts, trials);

  std::cout << "  mode: " << (result.exhaustive ? "exhaustive-greedy"
                                                : "hill-climb")
            << ", " << result.evaluations << " placements scored\n";
  std::cout << "  worst placement (at step " << result.placement.at_step
            << "):";
  for (std::size_t i = 0; i < result.placement.targets.size(); ++i) {
    std::cout << " " << design.program.variable(result.placement.targets[i]).name
              << ":=" << result.placement.values[i];
  }
  std::cout << "\n";
  if (result.divergence_found) {
    std::cout << "  DIVERGENCE: some schedule never converges from it\n";
  } else {
    std::cout << "  worst-case convergence: " << result.worst_case_steps
              << " steps"
              << (result.exhaustive ? " (exact, central daemon)" : " (observed)")
              << "\n";
  }
  std::cout << "  observed replay (random daemon): "
            << (result.observed.converged
                    ? std::to_string(result.observed.steps) + " steps"
                    : std::string("did not converge"))
            << "\n";

  const std::uint64_t median = median_of(baseline);
  std::cout << "  random-placement baseline median: " << median << " steps"
            << (result.worst_case_steps > median ? "  (adversary wins)" : "")
            << "\n";

  const std::uint64_t hi =
      std::max(result.worst_case_steps,
               *std::max_element(baseline.begin(), baseline.end()));
  print_histogram("baseline convergence steps", baseline, 0, hi);
  print_histogram("adversary (worst case)",
                  {result.worst_case_steps}, 0, hi);
  std::cout << "\n";
  return {worst_trace_json(design, result)};
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> pos;
  std::string worst_out, state_budget, dashboard_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: adversary_demo [ring|tree|both] [k] [seed] "
                   "[trials] [--worst-out=PATH] [--state-budget=N]\n"
                   "       [--dashboard-out=PATH]\n";
      return 0;
    } else if (flag_value(arg, "--worst-out", &value)) {
      worst_out = value;
    } else if (flag_value(arg, "--state-budget", &value)) {
      state_budget = value;
    } else if (flag_value(arg, "--dashboard-out", &value)) {
      dashboard_out = value;
    } else {
      pos.push_back(arg);
    }
  }
  obs::Telemetry::start_from_env();
  if (!dashboard_out.empty() && !obs::Telemetry::running()) {
    obs::Telemetry::start({});
  }
  const std::string which = pos.size() > 0 ? pos[0] : "both";
  AdversaryOptions opts;
  // The flag (or NONMASK_STATE_BUDGET) raises the cutoff below which the
  // adversary runs the exact exhaustive analysis instead of hill-climbing.
  // Only an explicit setting overrides the adversary's own default.
  if (!state_budget.empty()) {
    opts.exhaustive_budget = std::strtoull(state_budget.c_str(), nullptr, 10);
  } else if (std::getenv("NONMASK_STATE_BUDGET") != nullptr) {
    opts.exhaustive_budget = store::StoreConfig::from_env().budget;
  }
  opts.budget_k =
      pos.size() > 1 ? static_cast<std::size_t>(std::atoll(pos[1].c_str()))
                     : 2;
  opts.seed = pos.size() > 2
                  ? static_cast<std::uint64_t>(std::atoll(pos[2].c_str()))
                  : 1;
  const std::size_t trials =
      pos.size() > 3 ? static_cast<std::size_t>(std::atoll(pos[3].c_str()))
                     : 64;
  if (which != "ring" && which != "tree" && which != "both") {
    std::cerr << "unknown design '" << which << "' (want ring | tree | both)\n";
    return 2;
  }

  std::vector<std::string> artifacts;
  if (which == "ring" || which == "both") {
    artifacts.push_back(
        run_demo(make_dijkstra_ring(6, 7).design, opts, trials).json);
  }
  if (which == "tree" || which == "both") {
    artifacts.push_back(
        run_demo(make_diffusing(RootedTree::balanced(7, 2), true).design, opts,
                 trials)
            .json);
  }

  if (!worst_out.empty()) {
    std::ofstream out(worst_out);
    if (!out) {
      std::cerr << "cannot open " << worst_out << " for writing\n";
      return 2;
    }
    // Record the engine + budget the run used so the artifact is
    // self-describing (mirrors the obs run reports elsewhere).
    const auto store_cfg = store::StoreConfig::from_env();
    out << "{\"store_backend\":\"" << store::to_string(store_cfg.backend)
        << "\",\"state_budget\":" << opts.exhaustive_budget
        << ",\"worst_traces\":[";
    for (std::size_t i = 0; i < artifacts.size(); ++i) {
      if (i > 0) out << ",";
      out << artifacts[i];
    }
    out << "]}\n";
    std::cout << artifacts.size() << " worst trace(s) written to " << worst_out
              << "\n";
  }
  obs::Telemetry::stop();
  if (!dashboard_out.empty()) {
    obs::DashboardSpec spec;
    spec.title = "adversary_demo: " + which;
    spec.subtitle = "corruption budget k=" + std::to_string(opts.budget_k) +
                    ", seed " + std::to_string(opts.seed) + ", " +
                    std::to_string(trials) + " baseline trials";
    spec.summary = {
        {"designs", which},
        {"corruption budget k", std::to_string(opts.budget_k)},
        {"seed", std::to_string(opts.seed)},
        {"baseline trials", std::to_string(trials)},
        {"exhaustive budget", std::to_string(opts.exhaustive_budget)},
    };
    spec.samples = obs::Telemetry::samples();
    obs::write_dashboard_file(dashboard_out, spec);
    std::cout << "dashboard written to " << dashboard_out << "\n";
  }
  return 0;
}
