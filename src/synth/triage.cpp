#include "synth/triage.hpp"

#include <algorithm>
#include <sstream>

#include "store/facade.hpp"
#include "util/json.hpp"

namespace nonmask::synth {

const char* to_string(TriageVerdict verdict) noexcept {
  switch (verdict) {
    case TriageVerdict::kSurvives: return "survives";
    case TriageVerdict::kFallsBack: return "falls-back";
    case TriageVerdict::kRefuted: return "refuted";
  }
  return "unknown";
}

namespace {

/// The transient and environment rows are audited exhaustively when the
/// design's space fits this many states.
constexpr std::uint64_t kTriageBudget = 1u << 20;

std::string join_ints(const std::vector<int>& xs) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i != 0) out << ",";
    out << xs[i];
  }
  out << "}";
  return out.str();
}

TriageEntry transient_row(const Design& design,
                          const store::StoreConfig& config) {
  TriageEntry row;
  row.design = design.name;
  row.regime = FaultRegime::kTransient;

  if (!fits_in_budget(design.program, kTriageBudget)) {
    row.verdict = TriageVerdict::kFallsBack;
    row.detail = "state space exceeds triage budget; certificate unaudited";
    return row;
  }
  StateSpace space(design.program, kTriageBudget);
  const CertificationResult cert = certify_design(design, space);
  if (cert.theorem_certified()) {
    row.verdict = TriageVerdict::kSurvives;
    row.detail = std::string("certificate: ") + to_string(cert.method);
    return row;
  }
  const ToleranceReport tol =
      store::verify_tolerance_via(config, space, design);
  if (tol.tolerant()) {
    row.verdict = TriageVerdict::kFallsBack;
    row.detail = "no theorem applies; exhaustive certificate only";
  } else {
    row.verdict = TriageVerdict::kRefuted;
    row.detail = "not nonmasking tolerant (closure or convergence fails)";
  }
  return row;
}

/// The benchmark Byzantine placement certificates are audited against: the
/// m variable-owning processes farthest from process 0 in the comm graph
/// (ties to the smaller id). This is the Dubois–Masuzawa–Tixeuil shape —
/// adversaries deep in the topology are the ones a containing protocol must
/// shrug off; the *worst* placement is the adversary search's job
/// (find_worst_byzantine_placement), not the certificate's.
std::vector<int> benchmark_placement(const Program& program, std::size_t m) {
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

TriageEntry byzantine_row(const Design& design,
                          const ByzantinePlacementOptions& opts) {
  TriageEntry row;
  row.design = design.name;
  row.regime = FaultRegime::kByzantine;

  const std::vector<int> bench =
      benchmark_placement(design.program, std::max<std::size_t>(
                                              opts.num_byzantine, 1));
  if (bench.empty()) {
    row.verdict = TriageVerdict::kFallsBack;
    row.detail = "no process beyond 0 owns variables; placement undefined";
    return row;
  }
  std::ostringstream detail;
  AdversaryOptions leg_opts;
  leg_opts.seed = opts.seed;
  try {
    const ContainmentReport rep =
        measure_containment(design.program, bench,
                            legitimate_state(design, leg_opts),
                            opts.containment);
    if (rep.contained) {
      row.verdict = TriageVerdict::kSurvives;
      detail << "contained: radius " << rep.radius << " < horizon "
             << rep.horizon << " at benchmark placement " << join_ints(bench);
    } else {
      row.verdict = TriageVerdict::kRefuted;
      detail << "not contained: radius " << rep.radius << " reaches horizon "
             << rep.horizon << " at benchmark placement " << join_ints(bench);
    }
  } catch (const StateSpaceTooLarge&) {
    ByzantinePlacementOptions bopts = opts;
    bopts.force_hill_climb = true;
    const ByzantinePlacementResult worst =
        find_worst_byzantine_placement(design, bopts);
    row.verdict = TriageVerdict::kFallsBack;
    detail << "space too large for exact containment; hill-climb damage "
           << "radius >= " << worst.report.radius << " at placement "
           << join_ints(worst.byzantine);
  }
  row.detail = detail.str();
  return row;
}

TriageEntry environment_row(const Design& design,
                            const store::StoreConfig& config) {
  TriageEntry row;
  row.design = design.name;
  row.regime = FaultRegime::kEnvironment;

  validate_environment(design.program);
  if (!fits_in_budget(design.program, kTriageBudget)) {
    row.verdict = TriageVerdict::kFallsBack;
    row.detail = "state space exceeds triage budget; composed system "
                 "unaudited";
    return row;
  }
  // The environment actions are part of the program, so the ordinary
  // passes already run over the composed program∪environment system.
  StateSpace space(design.program, kTriageBudget);
  const ConvergenceReport unfair =
      store::check_convergence_via(config, space, design.S(), design.T());
  if (unfair.verdict == ConvergenceVerdict::kConverges) {
    row.verdict = TriageVerdict::kSurvives;
    row.detail = "converges under any daemon despite environment actions";
    return row;
  }
  const ConvergenceReport fair = store::check_convergence_weakly_fair_via(
      config, space, design.S(), design.T());
  if (fair.verdict == ConvergenceVerdict::kConverges) {
    row.verdict = TriageVerdict::kFallsBack;
    row.detail = "converges only under weak fairness (environment actions "
                 "can starve convergence in unfair schedules)";
  } else {
    row.verdict = TriageVerdict::kRefuted;
    row.detail = std::string("composed system does not converge (") +
                 to_string(fair.verdict) + " under weak fairness)";
  }
  return row;
}

bool has_environment_actions(const Program& program) {
  for (const auto& a : program.actions()) {
    if (a.kind() == ActionKind::kEnvironment) return true;
  }
  return false;
}

bool has_process_structure(const Program& program) {
  return communication_graph(program).size() >= 2;
}

}  // namespace

std::vector<TriageEntry> triage_design(
    const Design& design, const ByzantinePlacementOptions& byzantine) {
  std::vector<TriageEntry> rows;
  rows.push_back(transient_row(design, byzantine.containment));
  if (has_process_structure(design.program)) {
    rows.push_back(byzantine_row(design, byzantine));
  }
  if (has_environment_actions(design.program)) {
    rows.push_back(environment_row(design, byzantine.containment));
  }
  return rows;
}

std::string triage_to_json(const std::vector<TriageEntry>& entries) {
  std::string out;
  util::JsonWriter w(&out);
  w.begin_array();
  for (const TriageEntry& e : entries) {
    w.begin_object();
    w.key("design");
    w.value(e.design);
    w.key("fault_model");
    w.value(to_string(e.regime));
    w.key("verdict");
    w.value(to_string(e.verdict));
    w.key("detail");
    w.value(e.detail);
    w.end_object();
  }
  w.end_array();
  return out;
}

obs::DashboardTable triage_dashboard_table(
    const std::vector<TriageEntry>& entries) {
  obs::DashboardTable table;
  table.title = "Certification triage (per protocol × fault model)";
  table.columns = {"protocol", "fault model", "certificate", "evidence"};
  for (const TriageEntry& e : entries) {
    table.rows.push_back(
        {e.design, to_string(e.regime), to_string(e.verdict), e.detail});
  }
  return table;
}

}  // namespace nonmask::synth
