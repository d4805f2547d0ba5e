// Monte-Carlo convergence falsification for large state spaces.
//
// The exhaustive checker is exact but bounded (~tens of millions of
// states). Beyond that, random walks still yield *sound* violation
// certificates: if a walk from a T-state revisits a state without having
// passed through S, the walk contains a cycle lying entirely outside S —
// an unfair daemon can traverse it forever, so convergence is violated.
// Similarly, reaching a ¬S state with no enabled action certifies a
// deadlock violation. Finding nothing proves nothing (the method is a
// falsifier, not a verifier) — that is exactly the exhaustive checker's
// complement.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/candidate.hpp"
#include "core/predicate.hpp"
#include "core/program.hpp"
#include "util/rng.hpp"

namespace nonmask {

struct FalsifyOptions {
  std::uint64_t walks = 200;
  std::uint64_t max_walk_length = 10'000;
  std::uint64_t seed = 0xfa15ULL;
  /// Start-state generator (e.g. "apply this fault class to an S state");
  /// defaults to uniformly random in-domain states. States outside T are
  /// skipped.
  std::function<State(const Program&, Rng&)> make_start;
};

struct FalsifyResult {
  bool violated = false;
  /// A cycle of ¬S states (first == last omitted), when found.
  std::optional<std::vector<State>> cycle;
  /// A ¬S state with no enabled action, when found.
  std::optional<State> deadlock;
  std::uint64_t walks_run = 0;
  std::uint64_t steps_taken = 0;
};

/// Hunt for convergence violations of `design` (from random T-states).
/// Each step fires a uniformly chosen enabled action or, with probability
/// 1/2, the one whose successor violates the most constraints.
FalsifyResult falsify_convergence(const Design& design,
                                  const FalsifyOptions& opts = {});

struct ProbeOptions {
  /// Give up after visiting this many distinct ¬S states.
  std::uint64_t max_states = 4'096;
};

/// Sound bounded counterexample probe from one start state: exhaustive DFS
/// over the ¬S states reachable from `start` without passing through S. A
/// back edge closes a cycle lying entirely outside S (an unfair daemon can
/// loop forever); a ¬S state with no enabled action is a deadlock. Either
/// finding certifies a convergence violation — provided `start` satisfies
/// T ∧ ¬S, which the probe checks and otherwise reports nothing. Exceeding
/// `max_states` reports nothing (the probe is a falsifier, like the random
/// walks above, but deterministic and complete within its budget — the
/// synthesizer replays prior counterexample states through it to discard
/// broken candidates without touching the exhaustive checker).
FalsifyResult probe_violation_from(const Design& design, const State& start,
                                   const ProbeOptions& opts = {});

}  // namespace nonmask
