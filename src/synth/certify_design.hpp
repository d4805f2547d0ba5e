// Certification cascade for synthesized designs.
//
// A design that survives the CEGIS loop is *correct* (the exact checker
// accepted it) but not yet *explained*. This module attaches the strongest
// applicable certificate from the paper's toolbox, trying in order:
//   1. Theorem 1 on the inferred constraint graph (out-tree);
//   2. Theorem 2 (self-looping graph + per-node linear orders);
//   3. Theorems 1-2 again on the Section 7 *restricted* graph (edges of
//      constraints that hold throughout the reachable ¬S region dropped);
//   4. Theorem 3 with an automatically suggested layering (Section 7);
//   5. the exhaustive convergence checker as a certificate of last resort
//      (sound but unexplained — no inductive argument, just enumeration).
// Whichever theorem report applies is then re-audited independently with
// audit_certificate, so the synthesizer never emits a design on the
// validators' say-so alone.
#pragma once

#include <string>
#include <vector>

#include "cgraph/certify.hpp"
#include "cgraph/constraint_graph.hpp"
#include "cgraph/theorems.hpp"
#include "core/candidate.hpp"

namespace nonmask::synth {

enum class CertMethod {
  kNone,                ///< nothing applied (design not certified)
  kTheorem1,            ///< out-tree constraint graph
  kTheorem2,            ///< self-looping graph + linear orders
  kTheorem1Restricted,  ///< Theorem 1 on the Section 7 restricted graph
  kTheorem2Restricted,  ///< Theorem 2 on the Section 7 restricted graph
  kTheorem3,            ///< layered (suggest_layers + validate_theorem3)
  kExhaustive,          ///< exact convergence checker only
};

const char* to_string(CertMethod method) noexcept;

struct CertificationResult {
  CertMethod method = CertMethod::kNone;
  /// The applying theorem report (kTheorem* methods only).
  TheoremReport report;
  /// The graph the report was validated against (restricted when the
  /// method says so) — what audit_certificate consumed.
  ConstraintGraph graph;
  /// Action indices whose edges the Section 7 restriction dropped
  /// (kTheorem*Restricted only).
  std::vector<std::size_t> restricted_dropped;
  /// Independent audit of the applying report; nonempty = forged or buggy
  /// certificate, and the cascade continues past it.
  std::vector<std::string> audit_problems;
  /// Human-readable trail of every attempt, e.g.
  /// "theorem 1: constraint graph is self-looping, not an out-tree".
  std::vector<std::string> attempts;

  /// True when a theorem certified the design and its certificate audited
  /// clean. kExhaustive returns false here — the caller holds the exact
  /// checker's verdict separately.
  bool theorem_certified() const noexcept {
    return method != CertMethod::kNone && method != CertMethod::kExhaustive &&
           audit_problems.empty();
  }
};

/// Run the cascade on `design`, discharging every obligation at every state
/// of `space`, the design's full state space. The result's method is
/// kExhaustive when no theorem applies — the caller must then rely on its
/// own verify_tolerance run, which the CEGIS loop performs before
/// certification anyway.
CertificationResult certify_design(const Design& design,
                                   const StateSpace& space);

}  // namespace nonmask::synth
