// Byzantine containment probe: measure the containment radius of the
// shipped stabilizing protocols under permanently-adversarial processes
// (checker/containment.hpp), hunt the worst Byzantine placement
// (resilience/adversary.hpp), and triage every certificate against the
// restricted fault models (synth/triage.hpp).
//
// The headline contrast is the paper-era folklore made executable: the BFS
// spanning tree *contains* a Byzantine leaf far from the root (finite
// radius, the Dubois–Masuzawa–Tixeuil min+1 shape), while Dijkstra's token
// ring cannot contain any Byzantine process at all — a single adversary
// reaches every correct process (radius == horizon).
//
// Usage:  containment_probe [design] [m] [seed]
//   design   tree | ring | env | all   (default: all)
//   m        Byzantine set size        (default: 1)
//   seed     legitimate-state / search seed (default: 1)
//
// Flags:
//   --containment-out=PATH  deterministic JSON artifact (benchmark reports,
//                           worst placements, triage table); CI diffs it
//                           across NONMASK_THREADS=1/2/8
//   --report-out=PATH       RunReport JSON (triage + containment sections,
//                           metrics snapshot, timestamps)
//   --dashboard-out=PATH    self-contained HTML dashboard with the triage
//                           table rendered as a card
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "checker/containment.hpp"
#include "checker/restricted.hpp"
#include "obs/dashboard.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "protocols/spanning_tree.hpp"
#include "protocols/token_ring.hpp"
#include "resilience/adversary.hpp"
#include "store/config.hpp"
#include "store/facade.hpp"
#include "synth/triage.hpp"

using namespace nonmask;

namespace {

bool flag_value(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

std::string join_ints(const std::vector<int>& xs) {
  std::string out = "{";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(xs[i]);
  }
  return out + "}";
}

/// The benchmark placement certificates are judged against (mirrors
/// synth/triage.cpp): the m variable-owning processes farthest from
/// process 0 in the communication graph, ties to the smaller id.
std::vector<int> farthest_processes(const Program& program, std::size_t m) {
  const UndirectedGraph g = communication_graph(program);
  const std::vector<int> dist = distances_from(g, {0});
  std::vector<int> owners;
  for (int p = 1; p < g.size(); ++p) {
    for (const auto& v : program.variables()) {
      if (v.process == p) {
        owners.push_back(p);
        break;
      }
    }
  }
  std::stable_sort(owners.begin(), owners.end(), [&dist](int a, int b) {
    return dist[static_cast<std::size_t>(a)] >
           dist[static_cast<std::size_t>(b)];
  });
  if (owners.size() > m) owners.resize(m);
  std::sort(owners.begin(), owners.end());
  return owners;
}

struct ProbeArtifacts {
  std::vector<std::string> benchmarks;   // containment_to_json per design
  std::vector<std::string> placements;   // byzantine_placement_json per design
  std::vector<synth::TriageEntry> triage;
};

void probe(const Design& design, std::size_t m, std::uint64_t seed,
           ProbeArtifacts* art) {
  std::cout << "== " << design.name << " ==\n";

  AdversaryOptions leg_opts;
  leg_opts.seed = seed;
  const State legitimate = legitimate_state(design, leg_opts);
  const store::StoreConfig config = store::StoreConfig::from_env();

  // 1. Benchmark: the far placement a containing protocol must shrug off.
  const std::vector<int> bench = farthest_processes(design.program, m);
  const ContainmentReport rep =
      measure_containment(design.program, bench, legitimate, config);
  std::cout << "  benchmark placement " << join_ints(bench) << ": radius "
            << rep.radius << (rep.contained ? " < horizon " : " reaches horizon ")
            << rep.horizon << " -> "
            << (rep.contained ? "CONTAINED" : "not contained") << "\n";
  std::cout << "    " << rep.reachable_states << " composed states, "
            << rep.levels << " BFS levels, damage settled by level "
            << rep.time_to_containment << "\n";
  art->benchmarks.push_back(containment_to_json(design.program, rep));

  // 2. Adversary: the placement maximizing the radius.
  ByzantinePlacementOptions bopts;
  bopts.num_byzantine = m;
  bopts.seed = seed;
  bopts.containment = config;
  const ByzantinePlacementResult worst =
      find_worst_byzantine_placement(design, bopts);
  std::cout << "  worst placement " << join_ints(worst.byzantine) << " ("
            << (worst.exhaustive ? "exhaustive" : "hill-climb") << ", "
            << worst.evaluations << " sets scored)";
  if (worst.report_exact) {
    std::cout << ": radius " << worst.report.radius << " / horizon "
              << worst.report.horizon;
    if (worst.convergence_destroyed) {
      std::cout << " -- damage reaches the farthest correct process";
    }
  }
  std::cout << "\n";
  art->placements.push_back(byzantine_placement_json(design, worst));

  // 3. Triage: the certificate's fate per fault regime.
  const std::vector<synth::TriageEntry> rows =
      synth::triage_design(design, bopts);
  for (const synth::TriageEntry& row : rows) {
    std::cout << "  triage[" << to_string(row.regime)
              << "] " << synth::to_string(row.verdict) << ": " << row.detail
              << "\n";
  }
  art->triage.insert(art->triage.end(), rows.begin(), rows.end());
  std::cout << "\n";
}

std::string json_array(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ",";
    out += values[i];
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> pos;
  std::string containment_out, report_out, dashboard_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: containment_probe [tree|ring|env|all] [m] [seed]\n"
                   "       [--containment-out=PATH] [--report-out=PATH]\n"
                   "       [--dashboard-out=PATH]\n";
      return 0;
    } else if (flag_value(arg, "--containment-out", &value)) {
      containment_out = value;
    } else if (flag_value(arg, "--report-out", &value)) {
      report_out = value;
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
  const std::string which = pos.size() > 0 ? pos[0] : "all";
  const std::size_t m =
      pos.size() > 1 ? static_cast<std::size_t>(std::atoll(pos[1].c_str()))
                     : 1;
  const std::uint64_t seed =
      pos.size() > 2 ? static_cast<std::uint64_t>(std::atoll(pos[2].c_str()))
                     : 1;
  if (which != "tree" && which != "ring" && which != "env" && which != "all") {
    std::cerr << "unknown design '" << which
              << "' (want tree | ring | env | all)\n";
    return 2;
  }

  // Constructed before the probes: the report's clock starts here, so its
  // wall_ms times the run.
  obs::RunReport report("containment_probe", which);
  ProbeArtifacts art;
  if (which == "tree" || which == "all") {
    probe(make_spanning_tree(UndirectedGraph::path(5), 0).design, m, seed,
          &art);
  }
  if (which == "ring" || which == "all") {
    probe(make_dijkstra_ring(5, 5).design, m, seed, &art);
  }
  if (which == "env" || which == "all") {
    probe(make_spanning_tree_with_environment(UndirectedGraph::path(4), 0)
              .design,
          m, seed, &art);
  }

  const std::string triage_json = synth::triage_to_json(art.triage);
  if (!containment_out.empty()) {
    std::ofstream out(containment_out);
    if (!out) {
      std::cerr << "cannot open " << containment_out << " for writing\n";
      return 2;
    }
    // Deliberately timestamp-free: the CI smoke diffs this artifact across
    // NONMASK_THREADS=1/2/8, so every byte must be thread-count invariant.
    const auto store_cfg = store::StoreConfig::from_env();
    out << "{\"tool\":\"containment_probe\",\"designs\":\"" << which
        << "\",\"num_byzantine\":" << m << ",\"seed\":" << seed
        << ",\"store_backend\":\"" << store::to_string(store_cfg.backend)
        << "\",\"benchmarks\":" << json_array(art.benchmarks)
        << ",\"worst_placements\":" << json_array(art.placements)
        << ",\"triage\":" << triage_json << "}\n";
    std::cout << "containment artifact written to " << containment_out << "\n";
  }
  if (!report_out.empty()) {
    report.add_number("num_byzantine", static_cast<std::uint64_t>(m));
    report.add_number("seed", seed);
    report.add("benchmarks", json_array(art.benchmarks));
    report.add("worst_placements", json_array(art.placements));
    report.add("triage", triage_json);
    std::ofstream out(report_out);
    if (!out) {
      std::cerr << "cannot open " << report_out << " for writing\n";
      return 2;
    }
    report.write(out);
    std::cout << "run report written to " << report_out << "\n";
  }
  obs::Telemetry::stop();
  if (!dashboard_out.empty()) {
    obs::DashboardSpec spec;
    spec.title = "containment_probe: " + which;
    spec.subtitle = "m=" + std::to_string(m) + " Byzantine, seed " +
                    std::to_string(seed);
    spec.summary = {
        {"designs", which},
        {"byzantine set size", std::to_string(m)},
        {"seed", std::to_string(seed)},
        {"triage rows", std::to_string(art.triage.size())},
    };
    spec.tables = {synth::triage_dashboard_table(art.triage)};
    spec.samples = obs::Telemetry::samples();
    obs::write_dashboard_file(dashboard_out, spec);
    std::cout << "dashboard written to " << dashboard_out << "\n";
  }
  return 0;
}
