// Certificate auditing.
//
// The theorem validators emit certificates (node ranks, per-node linear
// orders) alongside their verdicts. A skeptical consumer can re-check a
// certificate *independently of the validator's code path*: ranks must
// satisfy the defining recurrence over the graph's edges, orders must be
// permutations of each node's in-edge actions whose pairwise preserves
// obligations re-verify. This is the classic checker-of-the-checker layer:
// a bug in the validators cannot silently certify a design without also
// forging a self-consistent certificate.
#pragma once

#include <string>
#include <vector>

#include "cgraph/constraint_graph.hpp"
#include "cgraph/theorems.hpp"

namespace nonmask {

/// Audit a report produced by validate_theorem1/2/3 against the constraint
/// graph it was computed from. Returns human-readable problems (empty =
/// certificate verifies). Reports that do not apply audit trivially.
///
/// Layered (Theorem 3) reports carry their layer partition in
/// report.layers; for those the audit re-checks the layer structure
/// instead of the per-node order mapping: the layers must partition the
/// design's convergence actions, every per-layer constraint graph must be
/// free of cycles of length > 1, and the preserves-obligations between
/// layers (closure actions and higher-layer convergence actions preserve
/// lower-layer constraints under the layer context) must re-verify.
///
/// Every preserves-obligation is re-run here over `space`, the design's
/// full state space, through check_preserves directly rather than through
/// the validators.
std::vector<std::string> audit_certificate(const Design& design,
                                           const ConstraintGraph& cg,
                                           const TheoremReport& report,
                                           const StateSpace& space);

}  // namespace nonmask
