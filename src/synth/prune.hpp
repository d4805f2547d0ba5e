// Cheap candidate pruning for the CEGIS loop.
//
// Before a candidate combination ever reaches a falsifier or the exact
// checker, two layers of pruning discard most of the grammar:
//   - *local* pruning checks one candidate action in isolation against the
//     obligations Section 3 imposes on any convergence action — executing
//     it from a T-state violating its constraint must establish the
//     constraint, and it must preserve the fault-span T. Both checks are
//     per-action, so a rejected action eliminates every combination that
//     contains it.
//   - the *seed bank* accumulates the violating states of every
//     counterexample found so far (falsifier cycles and deadlocks, exact
//     checker counterexamples). Replaying these through the bounded probe
//     (checker/falsify.hpp) rejects later candidates that fail the same
//     way, without re-running walks or the exhaustive checker.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "checker/preserves.hpp"
#include "core/candidate.hpp"
#include "synth/grammar.hpp"

namespace nonmask::synth {

struct LocalPruneResult {
  bool establishes = false;    ///< ¬c ∧ T states reach c in one step
  bool preserves_T = false;    ///< action preserves the fault-span
  /// A state witnessing the failed obligation, when available.
  std::optional<State> counterexample;
  bool ok() const noexcept { return establishes && preserves_T; }
};

/// Check the Section 3 per-action obligations for `action` (built for
/// `constraint`) within `candidate`'s program and fault-span, at every
/// state of `space` (the candidate program's state space).
LocalPruneResult prune_local(const CandidateTriple& candidate,
                             const Action& action,
                             const Constraint& constraint,
                             const StateSpace& space);

/// Deduplicated, insertion-ordered store of counterexample states. The
/// CEGIS loop snapshots its size at batch boundaries so parallel candidate
/// evaluations see a consistent prefix, then merges new states serially —
/// keeping results independent of thread count.
class SeedBank {
 public:
  /// Insert a state; returns true when it was new.
  bool add(const State& s);
  /// Insert every state of a counterexample trace.
  std::size_t add_all(const std::vector<State>& states);

  const std::vector<State>& seeds() const noexcept { return seeds_; }
  std::size_t size() const noexcept { return seeds_.size(); }

 private:
  std::vector<State> seeds_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> index_;
};

}  // namespace nonmask::synth
