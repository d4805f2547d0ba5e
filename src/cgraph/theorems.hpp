// Mechanical validators for the paper's Theorems 1-3.
//
// Each theorem is a bundle of sufficient conditions ("antecedents") for the
// convergence of a design's convergence actions. We discharge every
// antecedent mechanically:
//   - "action a preserves constraint c [whenever H holds]" obligations and
//     the other per-state antecedents run through checker/preserves' one
//     exact scan over the design's StateSpace;
//   - graph-shape antecedents run through cgraph/classify;
//   - linear-order antecedents are solved by topological sorting of the
//     "must-precede" relation (x must precede y whenever x does not
//     preserve y's constraint).
// A passing report carries the certificate (node ranks, per-node linear
// orders, layer structure) that the paper's proofs would use.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cgraph/classify.hpp"
#include "cgraph/constraint_graph.hpp"
#include "checker/preserves.hpp"
#include "core/candidate.hpp"

namespace nonmask {

struct Obligation {
  std::string description;
  bool passed = false;
  std::optional<State> counterexample;
};

struct TheoremReport {
  std::string theorem;
  bool applies = false;
  std::string failure;  ///< first failing antecedent (empty when applies)
  std::vector<Obligation> obligations;
  GraphShape shape = GraphShape::kCyclic;  ///< observed shape (thms 1-2)

  /// Certificates.
  std::vector<int> ranks;  ///< constraint-graph node ranks (thms 1-2)
  /// Per-node linear order of in-edge convergence actions (thm 2 / thm 3).
  std::vector<std::vector<std::size_t>> node_orders;
  /// The layer partition the report was validated against (thm 3 only):
  /// layers[l] lists convergence-action indices into design.program. Part
  /// of the certificate — audit_certificate re-checks it independently.
  std::vector<std::vector<std::size_t>> layers;
};

// Every validator also discharges the method's own design obligations
// (Section 3): every non-fault action preserves the fault-span T, and each
// convergence action has the form ¬c -> "establish c while preserving T" —
// its guard implies its constraint is violated, and executing it
// establishes the constraint, both within T. The paper's *combined*
// programs (e.g. the diffusing propagate-or-correct action) deliberately
// break the first half — the theorems are applied to the separated designs
// before combining — so validating a combined program correctly fails here.
// `space` is the design's full state space: every obligation is checked at
// every state of it.

/// Theorem 1 (Section 5): closure actions preserve each constraint; the
/// constraint graph is an out-tree.
TheoremReport validate_theorem1(const Design& design,
                                const ConstraintGraph& cg,
                                const StateSpace& space);

/// Theorem 2 (Section 6): closure actions preserve each constraint; the
/// constraint graph is self-looping; in-edge actions at each node admit a
/// linear order where each preserves its predecessors' constraints.
TheoremReport validate_theorem2(const Design& design,
                                const ConstraintGraph& cg,
                                const StateSpace& space);

/// Theorem 3 (Section 7): convergence actions are partitioned into layers
/// 0..M-1 (given as lists of action indices into design.program); each
/// layer's antecedents are discharged under the hypothesis that all lower
/// layers' constraints hold.
TheoremReport validate_theorem3(
    const Design& design, const std::vector<std::vector<std::size_t>>& layers,
    const StateSpace& space);

/// Try Theorem 1, then Theorem 2, on the design's inferred constraint
/// graph; returns the first report that applies, else the Theorem 2 report
/// (whose failure explains what layering would have to fix).
TheoremReport validate_design(const Design& design, const StateSpace& space);

/// Human-readable rendering of a report.
std::string format_report(const TheoremReport& report);

}  // namespace nonmask
