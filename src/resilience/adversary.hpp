// Adversarial fault-placement search.
//
// The paper's central claim is that convergence from T to S holds under
// *any* finite fault pattern; the benign random schedules in src/faults/
// only sample typical patterns. The adversary actively hunts the placement
// (which variables, which values) that maximizes convergence time:
//
//   * Exhaustive mode (state space within budget): a greedy
//     reachability-guided search. The checker's successor primitives
//     (StateSpace + ProgramSuccessors) drive a lazy longest-path-to-S
//     evaluation over the ¬S region — exactly the worst-case central-daemon
//     convergence time from each state — and the adversary greedily applies
//     the single-variable corruption with the largest such distance, up to
//     its budget of k corruptions.
//
//   * Hill-climb mode (space too large, or forced): a seeded random-restart
//     hill-climber over placements, scoring each candidate by simulating
//     the design under a fixed-seed RandomDaemon. Non-convergence within
//     max_steps scores above every converging run.
//
// Both modes are deterministic per seed, and both report the worst trace
// found as a JSON artifact (worst_trace_json, rendered with util::JsonWriter).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checker/containment.hpp"
#include "core/candidate.hpp"
#include "core/state.hpp"
#include "engine/experiment.hpp"
#include "faults/schedule.hpp"

namespace nonmask {

/// A concrete fault placement: set `targets[i] := values[i]` at `at_step`.
struct FaultPlacement {
  std::vector<VarId> targets;
  std::vector<Value> values;
  std::size_t at_step = 0;

  /// The placement as a fault model / one-strike schedule.
  FaultModelPtr model() const;
  FaultSchedule schedule() const;
};

struct AdversaryOptions {
  /// Max number of variables the adversary may corrupt (clamped to the
  /// program's variable count; 0 means "all variables").
  std::size_t budget_k = 1;
  std::uint64_t seed = 1;
  /// Hill-climb shape: `restarts` random starting placements, each refined
  /// for `iterations` single-mutation steps.
  std::size_t restarts = 6;
  std::size_t iterations = 48;
  /// Simulation cap per evaluation (hill-climb mode and observed replays).
  std::size_t max_steps = 200'000;
  /// Exhaustive mode is used when the state space fits this many states.
  std::uint64_t exhaustive_budget = 1u << 20;
  /// Force the hill-climber even on small spaces (tests, comparisons).
  bool force_hill_climb = false;
};

struct AdversaryResult {
  FaultPlacement placement;
  /// Exhaustive mode: the longest-path-to-S distance of the placed state —
  /// the exact worst-case central-daemon convergence time. Hill-climb mode:
  /// the best simulated objective found.
  std::uint64_t worst_case_steps = 0;
  /// The adversary found a placement from which some computation never
  /// reaches S (a ¬S cycle or deadlock); worst_case_steps is then a lower
  /// bound (hill-climb) or meaningless (exhaustive).
  bool divergence_found = false;
  /// Deterministic replay of the placement under RandomDaemon.
  TrialOutcome observed;
  bool exhaustive = false;         ///< which engine produced the result
  std::uint64_t evaluations = 0;   ///< candidate placements scored
  /// Exhaustive mode: the worst-case trace (placed state following max-
  /// distance successors down to S, capped). Hill-climb mode: empty.
  std::vector<State> worst_trace;
};

/// The legitimate state faults are placed on: the program's initial state
/// if it satisfies S, else the result of converging from it under
/// RandomDaemon (deterministic per seed).
State legitimate_state(const Design& design, const AdversaryOptions& opts);

/// Search for the fault placement maximizing convergence time.
AdversaryResult find_worst_placement(const Design& design,
                                     const AdversaryOptions& opts = {});

/// Benign baseline for comparison: convergence steps of `trials` runs, each
/// corrupting a uniformly random placement of budget_k variables at step 0
/// (non-convergence records max_steps + 1). Deterministic per seed.
std::vector<std::uint64_t> random_placement_baseline(
    const Design& design, const AdversaryOptions& opts, std::size_t trials);

/// The worst trace found, as one self-describing JSON document.
std::string worst_trace_json(const Design& design, const AdversaryResult& r);

// --- Byzantine placement search --------------------------------------------
//
// Transient adversaries hunt the corruption maximizing convergence *time*;
// a Byzantine adversary never stops, so the prize is the process set
// maximizing the containment *radius* (or abolishing containment outright).

struct ByzantinePlacementOptions {
  /// Number of Byzantine processes to place (clamped to the process count
  /// minus one — an all-Byzantine system has nothing left to contain).
  std::size_t num_byzantine = 1;
  std::uint64_t seed = 1;
  /// Exhaustive subset enumeration runs when the composed state space fits
  /// this budget and there are at most 4,096 size-m subsets.
  std::uint64_t exhaustive_budget = 1u << 20;
  bool force_hill_climb = false;
  /// Hill-climb shape (large spaces): `restarts` random sets, each mutated
  /// `iterations` times, scored by a seeded simulation of 2,000 steps under
  /// a persistent ByzantineModel.
  std::size_t restarts = 4;
  std::size_t iterations = 16;
  /// Passed through to measure_containment for the hill-climb's final
  /// report (its budget and thread count) and, with `exhaustive_budget` as
  /// the budget, for exact scoring.
  store::StoreConfig containment;
};

struct ByzantinePlacementResult {
  std::vector<int> byzantine;  ///< worst placement found (sorted)
  /// Exact containment analysis of that placement. Valid when
  /// `report_exact`; hill-climb runs on spaces past the budget leave it
  /// default-initialized except for `byzantine`.
  ContainmentReport report;
  bool report_exact = false;
  bool exhaustive = false;  ///< exhaustive subset enumeration used
  std::uint64_t evaluations = 0;
  /// Damage reaches the farthest correct process (radius == horizon): the
  /// protocol cannot contain this adversary at all.
  bool convergence_destroyed = false;
};

/// Hunt the Byzantine process set maximizing the containment radius.
/// Exhaustive on small spaces (every size-m subset, scored by
/// measure_containment; deterministic), seeded hill-climb otherwise
/// (simulation-scored; deterministic per seed). Throws
/// std::invalid_argument when the program has fewer than two processes or
/// fewer than m processes that own variables.
ByzantinePlacementResult find_worst_byzantine_placement(
    const Design& design, const ByzantinePlacementOptions& opts = {});

/// The placement search outcome as one self-describing JSON document (the
/// containment-report artifact embeds containment_to_json when exact).
std::string byzantine_placement_json(const Design& design,
                                     const ByzantinePlacementResult& r);

}  // namespace nonmask
