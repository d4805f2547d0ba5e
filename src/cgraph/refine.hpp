// Refined constraint graphs (Section 7).
//
// The paper observes the constraint-graph definition is sometimes coarser
// than need be, and lists refinements for cyclic graphs:
//   (1) restrict to a subset of states R — an edge whose constraint is
//       true at every state in R can be ignored when reasoning about R;
//   (2) partition the convergence actions hierarchically (Theorem 3).
// This module implements both directions mechanically:
//   - restrict_constraint_graph drops the edges of constraints that hold
//     throughout R (checked at every state of the design's StateSpace),
//     re-classifying the remainder;
//   - suggest_layers searches for a Theorem-3 layering automatically, by
//     topologically ordering the inter-constraint "breaks" relation.
#pragma once

#include <optional>
#include <vector>

#include "cgraph/constraint_graph.hpp"
#include "cgraph/theorems.hpp"
#include "core/candidate.hpp"

namespace nonmask {

struct RestrictedGraph {
  ConstraintGraph graph;            ///< same nodes; surviving edges only
  std::vector<std::size_t> dropped;  ///< action indices whose edges vanished
};

/// Drop the edges of convergence actions whose constraint holds at every
/// state of R (within the fault-span if the design has one). The surviving
/// graph is what the paper's Section 7 "restriction to R" reasons about.
RestrictedGraph restrict_constraint_graph(const Design& design,
                                          const ConstraintGraph& cg,
                                          const PredicateFn& R,
                                          const StateSpace& space);

/// Heuristic Theorem-3 layering: compute, for each pair of convergence
/// actions (a, b) with distinct constraints, whether a can violate b's
/// constraint ("a breaks b"); condense the breaks-digraph into strongly
/// connected components and emit them in reverse topological order, so
/// that later layers never break earlier ones. Returns nullopt when any
/// within-component pair breaks each other across different target nodes
/// (no hierarchy exists under this heuristic).
std::optional<std::vector<std::vector<std::size_t>>> suggest_layers(
    const Design& design, const StateSpace& space);

}  // namespace nonmask
