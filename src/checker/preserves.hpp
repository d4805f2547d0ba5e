// "Action a preserves predicate R" (Section 2): starting from any state
// where a is enabled and R holds, executing a yields a state where R holds.
//
// This is the workhorse of the theorem validators (Sections 5-7): each
// antecedent of Theorems 1-3 is a per-state obligation over a design's
// state space, and every one is discharged exactly by the one scan below,
// first_failure, over the whole StateSpace.
#pragma once

#include <cstdint>
#include <optional>

#include "checker/state_space.hpp"
#include "core/action.hpp"
#include "core/predicate.hpp"
#include "store/odometer.hpp"

namespace nonmask {

/// The one obligation scan: walk `space` in code order and return the first
/// state at which `holds(s, next)` is false, or nullopt when it holds at
/// every state. States are ripple-decoded by an OdometerCursor. `next` is
/// scratch storage the test may build a successor in (Action::apply_into);
/// the scan reuses it across states, so a scan allocates a bounded number
/// of times however large the space is.
template <typename Test>
std::optional<State> first_failure(const StateSpace& space, Test&& holds) {
  store::OdometerCursor cur(space, 0);
  State next;
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    if (!holds(cur.state(), next)) return cur.state();
    if (code + 1 < space.size()) cur.advance();
  }
  return std::nullopt;
}

struct PreservesReport {
  bool preserves = false;
  /// The first hypothesis state, in code order, whose successor violates
  /// the predicate.
  std::optional<State> counterexample;
};

/// Check that `action` preserves `predicate` at every state of `space`,
/// under the optional `context` hypothesis: only states where it holds are
/// considered (e.g. Theorem 3's "whenever all constraints in lower layers
/// hold").
PreservesReport check_preserves(const StateSpace& space, const Action& action,
                                const PredicateFn& predicate,
                                const PredicateFn& context = {});

}  // namespace nonmask
