// Stabilizing tree aggregation (extension protocol).
//
// Every node j owns an input in.j and an aggregate agg.j that must equal
// the maximum input in j's subtree:
//   agg.j = max(in.j, max over children k of agg.k).
// One convergence action per node re-evaluates the local equation; the
// unique fixpoint is the true subtree maxima, so the root's aggregate
// stabilizes to the global maximum — the substrate under snapshot /
// termination-detection style applications of diffusing computations
// (Section 5.1's application list).
//
// Like the BFS spanning tree, reads span all children: the inferred
// constraint graph of a non-chain tree is coarse, but the *tree* orients
// the dependencies leaf-to-root, so Theorem 2 applies whenever each node's
// support stays in two partition groups (chains), and the exact checker
// covers the rest.
#pragma once

#include <vector>

#include "core/candidate.hpp"
#include "graphlib/topology.hpp"

namespace nonmask {

struct AggregationDesign {
  Design design;
  std::vector<VarId> input;      ///< in.j (read-only: no action writes it)
  std::vector<VarId> aggregate;  ///< agg.j

  /// The correct aggregate of node j at state s (max over its subtree).
  Value expected(const RootedTree& tree, const State& s, int j) const;
};

/// Inputs and aggregates range over [0, max_value].
AggregationDesign make_aggregation(const RootedTree& tree, Value max_value);

}  // namespace nonmask
