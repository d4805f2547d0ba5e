// The checker engine: every exhaustive verification entry point, run on the
// compact store pipeline (store_check.cpp for the scans and the DFS/SCC
// passes, frontier.cpp for reachability).
//
// The per-state footprint is bits, not bytes: predicate flags and DFS
// colors live in 2-bit arrays, convergence distances start at 16 bits
// (widened transparently if a run actually exceeds 65535 steps), the
// Tarjan pass keeps a u32 visit index per code plus lowlinks for visited
// states only, scans ripple-decode with OdometerCursor instead of per-code
// div/mod, and reachability runs through the FrontierEngine's in-memory
// level-synchronous BFS. With more than one worker, on spaces of more than
// one chunk and at most 2^22 codes, the convergence passes generate their
// successor lists in parallel before the serial DFS/SCC reads them.
//
// The exact T-tolerance check of a design — closure of S, closure of T,
// convergence — is one call, verify_tolerance_via: one flag pass, one
// sweep over the S codes, one convergence traversal, so on a converging
// design each state's successors are generated once. Spec check jobs, the
// certify fallback, resilience, synthesis and triage call it. The single
// passes below it (check_closed_via, check_convergence*_via) serve per-pass
// timings, trace_report, the benchmarks and the tests.
//
// Contract: every report is byte-identical to the serial dense checker's
// in src/checker/ (the reference oracle) at any thread count, grain, or
// shard count — same counts, same verdicts, same counterexamples.
// tests/store_equivalence_test.cpp checks it on every built-in protocol.
// NONMASK_STATE_BUDGET / NONMASK_THREADS reach these functions through
// StoreConfig::from_env(). A successor outside the state space has no
// code: the passes that encode successors throw StateOutOfDomain.
//
// Predicates are evaluated from several threads at once and must be
// thread-safe; every PredicateFn built by the spec compiler and the
// shipped protocols is a pure function of the state.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "checker/closure_check.hpp"
#include "checker/convergence_check.hpp"
#include "checker/fault_span.hpp"
#include "checker/variant.hpp"
#include "store/config.hpp"

namespace nonmask::store {

/// Thrown by the weakly-fair check and variant extraction for a space of
/// 2^32 - 1 codes or more: their bookkeeping numbers visited states with
/// u32 ids (0xFFFFFFFF marks "unvisited"). The dense oracle would need
/// >= 13 bytes per code there (>= 56 GB), so there is nothing to fall
/// back to.
class VisitIdRangeExceeded : public std::length_error {
 public:
  explicit VisitIdRangeExceeded(std::uint64_t states);
  std::uint64_t states() const noexcept { return states_; }

 private:
  std::uint64_t states_;
};

/// Closure of `predicate` under the given action indices: chunk-parallel
/// odometer scans with an in-order reduction that replays the serial
/// scan's early exit.
ClosureReport check_closed_via(const StoreConfig& config,
                               const StateSpace& space,
                               const PredicateFn& predicate,
                               const std::vector<std::size_t>& actions);

/// Closure under all non-fault actions.
ClosureReport check_closed_via(const StoreConfig& config,
                               const StateSpace& space,
                               const PredicateFn& predicate);

/// Unfair-daemon convergence (~2.5 bytes/state): parallel flag sweep into a
/// TwoBitArray, then the shared DFS core (checker/convergence_core.hpp)
/// over 2-bit colors and narrow distances.
ConvergenceReport check_convergence_via(const StoreConfig& config,
                                        const StateSpace& space,
                                        const PredicateFn& S,
                                        const PredicateFn& T);

/// Weakly-fair convergence (Tarjan/SCC + fair-escape analysis,
/// checker/scc_core.hpp): a u32 visit index per code, lowlinks in
/// slabs indexed by visit id (a popped state's slot then holds its
/// component id), and one on-stack bit per code. Throws
/// VisitIdRangeExceeded past the u32 id range.
ConvergenceReport check_convergence_weakly_fair_via(const StoreConfig& config,
                                                    const StateSpace& space,
                                                    const PredicateFn& S,
                                                    const PredicateFn& T);

/// Longest-path-to-S variant: one shared-core DFS with u32 distances
/// materializes the distance vector directly. nullopt when no variant
/// exists (a ¬S cycle or deadlock). Throws VisitIdRangeExceeded past the
/// u32 range.
std::optional<VariantFunction> compute_variant_via(const StoreConfig& config,
                                                   const StateSpace& space,
                                                   const PredicateFn& S);

/// BFS closure of `start` under `actions` through the FrontierEngine.
StateSet compute_reachable_via(const StoreConfig& config,
                               const StateSpace& space,
                               const PredicateFn& start,
                               const std::vector<std::size_t>& actions,
                               const FaultSpanOptions& opts = {});

/// Reachability from S under program + fault actions.
StateSet compute_fault_span_via(const StoreConfig& config,
                                const StateSpace& space, const PredicateFn& S,
                                const std::vector<std::size_t>& fault_actions,
                                const FaultSpanOptions& opts = {});

/// The exact T-tolerance check: closure of S, closure of T, and
/// convergence (unfair, or weakly fair), each report byte-identical to the
/// oracle's check_closed / check_convergence* run on its own. One pass
/// structure discharges all three:
///   1. a flag pass evaluates S and T once per code;
///   2. a chunk-parallel sweep expands the S codes in code order, giving
///      closure of S and a closure-of-T tally over the S ∧ T codes;
///   3. the convergence traversal (or the prefetch feeding it) tallies
///      closure of T over the T ∧ ¬S codes it expands.
/// Closure of T comes from the tally when it covers every T code and no
/// successor left T; otherwise (T not closed, or a cycle or deadlock ended
/// the traversal early) check_closed_via(T) runs as well. On a converging
/// design each state's successors are generated once. Throws
/// StateOutOfDomain for a successor outside the space, and
/// VisitIdRangeExceeded as the weakly-fair check does.
ToleranceReport verify_tolerance_via(const StoreConfig& config,
                                     const StateSpace& space,
                                     const Design& design,
                                     bool weakly_fair = false);

}  // namespace nonmask::store
