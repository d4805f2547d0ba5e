// Closure checking (the first requirement of T-tolerance, Section 3):
// a state predicate R is closed in p iff every action of p preserves R.
// Checked exhaustively over the explicit state space.
#pragma once

#include <optional>
#include <vector>

#include "checker/state_space.hpp"
#include "core/predicate.hpp"
#include "core/program.hpp"

namespace nonmask {

struct ClosureViolation {
  State state;              ///< R holds here, action enabled
  std::size_t action;       ///< index of the offending action
  State successor;          ///< R fails here
};

struct ClosureReport {
  bool closed = false;
  std::optional<ClosureViolation> violation;
  std::uint64_t states_checked = 0;
  std::uint64_t transitions_checked = 0;
};

/// Check that `predicate` is closed under the given actions (indices into
/// p.actions()). Exhaustive over the full state space.
ClosureReport check_closed(const StateSpace& space, const PredicateFn& predicate,
                           const std::vector<std::size_t>& actions);

/// Check closure under all non-fault actions of the program.
ClosureReport check_closed(const StateSpace& space,
                           const PredicateFn& predicate);

namespace detail {

/// Bump the checker.closure.* counters from a finished report (shared by
/// the serial check and the engine's reduction).
void record_closure_metrics(const ClosureReport& report);

}  // namespace detail

}  // namespace nonmask
