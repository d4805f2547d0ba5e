// Counterexample-guided synthesis of convergence actions (the tentpole of
// the synth subsystem).
//
// Input: a candidate triple (p, S, T) — closure actions plus the
// constraint decomposition of S (Section 3). Output: a certified Design
// whose synthesized convergence actions make the program T-tolerant for S.
//
// The search runs CEGIS over the grammar's per-constraint candidate pools:
//   1. *local pruning* discards actions that fail Section 3's per-action
//      obligations (establish the constraint, preserve T) — checked
//      exhaustively against the candidate program's state space;
//   2. surviving actions form one pool per constraint; a *combination*
//      picks one action per pool (mixed-radix index, constraint 0 varies
//      fastest), and combinations are evaluated in batches on the thread
//      pool;
//   3. each evaluation replays the *seed bank* — violating states from
//      every counterexample found so far — through the bounded probe, then
//      runs cheap random-walk falsification; only survivors reach the
//      exhaustive checker, whose counterexamples seed the bank in turn;
//   4. the first (lowest-index) combination the exact checker accepts is
//      the winner, which then passes through the certification cascade
//      (synth/certify_design.hpp) and an independent certificate audit.
//
// Determinism: the seed bank is snapshotted at each batch boundary, the
// parallel phase reads only the snapshot, and all bank mutations and
// exact-checker calls happen serially in combination order — so the
// winner, the statistics, and the JSON report are byte-identical for any
// thread count given the same seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checker/convergence_check.hpp"
#include "checker/state_space.hpp"
#include "core/candidate.hpp"
#include "store/config.hpp"
#include "synth/certify_design.hpp"
#include "synth/grammar.hpp"

namespace nonmask::synth {

struct SynthesisOptions {
  std::uint64_t seed = 0x5e17ULL;
  /// Cap on combination evaluations before giving up.
  std::uint64_t max_candidates = 50'000;
  /// Combinations evaluated per parallel batch (also the seed-bank
  /// snapshot granularity).
  std::size_t batch = 64;
  /// Worker threads; 0 = default_threads(). Does not affect results.
  unsigned threads = 0;
  GrammarOptions grammar;
  /// Random-walk falsification effort per surviving combination.
  std::uint64_t falsify_walks = 24;
  std::uint64_t falsify_walk_length = 256;
  /// State cap for each seed-replay probe.
  std::uint64_t probe_max_states = 4'096;
  /// Budget for the exact oracle's state space; synthesis requires the
  /// candidate program to fit (the exact checker is the final judge).
  std::uint64_t state_budget = StateSpace::kDefaultBudget;
  /// Checker-engine configuration for the exact oracle (threads, grain);
  /// results never depend on it. Callers build it with
  /// StoreConfig::from_env() to honor NONMASK_STATE_BUDGET.
  store::StoreConfig store;
  /// Name given to the synthesized design ("<program>-synth" when empty).
  std::string design_name;
};

struct SynthesisStats {
  std::uint64_t enumerated_actions = 0;   ///< grammar output, all pools
  std::uint64_t local_pruned_actions = 0; ///< rejected by local obligations
  std::uint64_t evaluated = 0;            ///< combination evaluations
  std::uint64_t pruned_by_seed = 0;       ///< rejected by seed replay
  std::uint64_t falsified = 0;            ///< rejected by random walks
  std::uint64_t exact_checks = 0;         ///< exhaustive checker runs
  std::uint64_t exact_failures = 0;
  std::uint64_t seeds_collected = 0;      ///< distinct seed states banked
  std::uint64_t batches = 0;
};

/// Per-constraint pool accounting for the report.
struct PoolStats {
  std::string constraint;
  std::size_t enumerated = 0;  ///< grammar candidates
  std::size_t kept = 0;        ///< survivors of local pruning
};

struct SynthesisResult {
  bool success = false;
  std::string failure;  ///< human-readable, when !success

  /// The synthesized design (valid when success).
  Design design;
  /// Winning combination: index into each constraint's pool, plus its
  /// mixed-radix combination index and the chosen candidates.
  std::vector<std::size_t> winner_choice;
  std::uint64_t winner_index = 0;
  std::vector<ActionCandidate> winner_actions;
  /// Synthesized action renderings, e.g. "synth[eq0]: x.1 := x.0".
  std::vector<std::string> winner_descriptions;

  std::vector<PoolStats> pools;
  /// Size of the combination space (saturates at uint64 max).
  std::uint64_t total_combinations = 0;
  SynthesisStats stats;

  /// Certificate for the winner (valid when success).
  CertificationResult certification;
  /// The exact checker's verdict on the winner (valid when success).
  ToleranceReport exact;
};

/// Run the synthesizer. The candidate program must contain no convergence
/// actions (closure actions, and optionally fault actions, only).
SynthesisResult synthesize(const CandidateTriple& candidate,
                           const SynthesisOptions& opts = {});

}  // namespace nonmask::synth
