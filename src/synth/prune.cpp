#include "synth/prune.hpp"

namespace nonmask::synth {

LocalPruneResult prune_local(const CandidateTriple& candidate,
                             const Action& action,
                             const Constraint& constraint,
                             const StateSpace& space) {
  LocalPruneResult result;
  const PredicateFn T = candidate.T();

  // Establishment: from any T-state violating c, one execution establishes
  // c. (The guard is ¬c, so these are exactly the enabled T-states.)
  result.counterexample =
      first_failure(space, [&](const State& s, State& next) {
        if (!T(s) || constraint.fn(s)) return true;
        action.apply_into(s, next);
        return constraint.fn(next);
      });
  result.establishes = !result.counterexample;
  if (!result.establishes) return result;

  // Fault-span preservation (the "while preserving T" half of Section 3).
  auto pr = check_preserves(space, action, T);
  result.preserves_T = pr.preserves;
  result.counterexample = std::move(pr.counterexample);
  return result;
}

bool SeedBank::add(const State& s) {
  const std::uint64_t h = s.hash();
  auto& bucket = index_[h];
  for (std::size_t i : bucket) {
    if (seeds_[i] == s) return false;
  }
  bucket.push_back(seeds_.size());
  seeds_.push_back(s);
  return true;
}

std::size_t SeedBank::add_all(const std::vector<State>& states) {
  std::size_t added = 0;
  for (const State& s : states) {
    if (add(s)) ++added;
  }
  return added;
}

}  // namespace nonmask::synth
