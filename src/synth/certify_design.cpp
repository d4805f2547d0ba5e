#include "synth/certify_design.hpp"

#include <utility>

#include "cgraph/refine.hpp"

namespace nonmask::synth {

const char* to_string(CertMethod method) noexcept {
  switch (method) {
    case CertMethod::kNone: return "none";
    case CertMethod::kTheorem1: return "theorem 1";
    case CertMethod::kTheorem2: return "theorem 2";
    case CertMethod::kTheorem1Restricted: return "theorem 1 (restricted graph)";
    case CertMethod::kTheorem2Restricted: return "theorem 2 (restricted graph)";
    case CertMethod::kTheorem3: return "theorem 3";
    case CertMethod::kExhaustive: return "exhaustive checker";
  }
  return "?";
}

namespace {

/// Adopt `report` as the certificate if it applies and its audit is clean;
/// otherwise record the failure in the attempt trail and keep cascading.
bool adopt(CertificationResult& result, CertMethod method,
           TheoremReport report, const ConstraintGraph& graph,
           const Design& design, const StateSpace& space,
           const std::string& label) {
  if (!report.applies) {
    result.attempts.push_back(
        label + ": " +
        (report.failure.empty() ? "does not apply" : report.failure));
    return false;
  }
  auto problems = audit_certificate(design, graph, report, space);
  if (!problems.empty()) {
    // A validator said yes but its certificate does not re-verify: distrust
    // it and continue the cascade (this is the audit earning its keep).
    result.attempts.push_back(label + ": applies but audit failed: " +
                              problems.front());
    return false;
  }
  result.method = method;
  result.report = std::move(report);
  result.graph = graph;
  result.attempts.push_back(label + ": certified");
  return true;
}

}  // namespace

CertificationResult certify_design(const Design& design,
                                   const StateSpace& space) {
  CertificationResult result;
  const auto cg = infer_constraint_graph(design.program);
  if (!cg.ok) {
    result.attempts.push_back("constraint graph: " + cg.error);
    result.method = CertMethod::kExhaustive;
    return result;
  }

  if (adopt(result, CertMethod::kTheorem1,
            validate_theorem1(design, cg.graph, space), cg.graph, design,
            space, "theorem 1")) {
    return result;
  }
  if (adopt(result, CertMethod::kTheorem2,
            validate_theorem2(design, cg.graph, space), cg.graph, design,
            space, "theorem 2")) {
    return result;
  }

  // Section 7 restriction: during convergence the system sits in the
  // reachable ¬S region, so edges of constraints that hold throughout ¬S
  // (within T) never fire and can be dropped before re-classifying.
  const auto restricted =
      restrict_constraint_graph(design, cg.graph, p_not(design.S()), space);
  if (restricted.dropped.empty()) {
    result.attempts.push_back("restriction: no edges dropped");
  } else {
    if (adopt(result, CertMethod::kTheorem1Restricted,
              validate_theorem1(design, restricted.graph, space),
              restricted.graph, design, space,
              "theorem 1 on restricted graph")) {
      result.restricted_dropped = restricted.dropped;
      return result;
    }
    if (adopt(result, CertMethod::kTheorem2Restricted,
              validate_theorem2(design, restricted.graph, space),
              restricted.graph, design, space,
              "theorem 2 on restricted graph")) {
      result.restricted_dropped = restricted.dropped;
      return result;
    }
  }

  // Theorem 3 with an automatically suggested layering.
  if (const auto layers = suggest_layers(design, space)) {
    if (adopt(result, CertMethod::kTheorem3,
              validate_theorem3(design, *layers, space), cg.graph, design,
              space, "theorem 3 (suggested layers)")) {
      return result;
    }
  } else {
    result.attempts.push_back(
        "layering: no hierarchy found by suggest_layers");
  }

  result.method = CertMethod::kExhaustive;
  result.attempts.push_back(
      "no theorem applies; relying on the exhaustive convergence certificate");
  return result;
}

}  // namespace nonmask::synth
