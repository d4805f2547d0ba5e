// Convergence checking (the second requirement of T-tolerance, Section 3):
// every computation of p starting at a state where T holds reaches a state
// where S holds.
//
// Without fairness, convergence holds iff the transition graph restricted
// to the states reachable from T while ¬S holds (a) contains no cycle and
// (b) contains no terminal ¬S state (a maximal computation may halt there).
// This check is *exact* for the arbitrary (unfair) central daemon, which
// also covers the paper's Section 8 remark that its derived programs need
// no fairness.
//
// With weak fairness some cycles are benign. We implement the standard
// sound escape analysis: a non-trivial SCC of the ¬S region is
// fair-escapable when some action is enabled at every state of the SCC and
// all of its transitions exit the SCC — an infinite fair computation cannot
// stay inside. If every non-trivial SCC is fair-escapable, weakly fair
// convergence holds; otherwise the verdict is "unknown" (the condition is
// sufficient, not necessary).
#pragma once

#include <optional>
#include <vector>

#include "checker/closure_check.hpp"
#include "checker/state_space.hpp"
#include "checker/successor_codes.hpp"
#include "core/predicate.hpp"
#include "core/program.hpp"

namespace nonmask {

enum class ConvergenceVerdict {
  kConverges,  ///< every computation from T reaches S
  kViolated,   ///< counterexample found (cycle or ¬S deadlock)
  kUnknown,    ///< fair analysis inconclusive
};

const char* to_string(ConvergenceVerdict v) noexcept;

struct ConvergenceReport {
  ConvergenceVerdict verdict = ConvergenceVerdict::kUnknown;
  std::uint64_t states_in_T = 0;
  std::uint64_t states_in_S = 0;      ///< states where both S and T hold
  std::uint64_t region_states = 0;    ///< explored ¬S states
  std::uint64_t transitions = 0;      ///< explored transitions

  /// Counterexample: a cycle of states outside S (unfair daemon can loop).
  std::optional<std::vector<State>> cycle;
  /// Counterexample: a ¬S state where no action is enabled.
  std::optional<State> deadlock;

  /// Worst-case number of steps to reach S from any T state (longest path
  /// through the ¬S region). Valid when verdict == kConverges for the
  /// unfair check.
  std::uint64_t max_steps_to_S = 0;
};

/// Exact convergence check for the arbitrary (unfair) daemon.
ConvergenceReport check_convergence(const StateSpace& space,
                                    const PredicateFn& S, const PredicateFn& T);

/// Sound convergence check under weak fairness (SCC escape analysis).
/// Returns kConverges, kViolated (¬S deadlock — fairness cannot help), or
/// kUnknown.
ConvergenceReport check_convergence_weakly_fair(const StateSpace& space,
                                                const PredicateFn& S,
                                                const PredicateFn& T);

/// Full T-tolerance verification of a design (Section 3): closure of S,
/// closure of T, and convergence from T to S.
struct ToleranceReport {
  ClosureReport closure_S;
  ClosureReport closure_T;
  ConvergenceReport convergence;
  bool tolerant() const noexcept {
    return closure_S.closed && closure_T.closed &&
           convergence.verdict == ConvergenceVerdict::kConverges;
  }
};

struct Design;  // from core/candidate.hpp
ToleranceReport verify_tolerance(const StateSpace& space, const Design& design);

/// The paper's Section 3 classification: p T-tolerant for S is *masking*
/// when S = T and *nonmasking* otherwise.
enum class ToleranceClass {
  kMasking,     ///< S = T: faults never expose a non-S state
  kNonmasking,  ///< S ⊊ T: the input-output relation is violated temporarily
  kNotTolerant, ///< closure or convergence fails
};

const char* to_string(ToleranceClass c) noexcept;

/// Verify tolerance and classify it (exhaustive comparison of S and T).
ToleranceClass classify_tolerance(const StateSpace& space,
                                  const Design& design);

/// Successor provider for the convergence analyses (the serial oracle and
/// the engine alike): successors() fills `out` with the sorted distinct
/// successor codes of `code` under the given actions — decode, then each
/// enabled action's successor code (checker/successor_codes.hpp) — and
/// returns the number of enabled actions, counted before duplicates are
/// dropped (a closure scan's transitions). An empty result means no action
/// is enabled (deadlock). The decoded state and each successor are built in
/// scratch states it owns, so a call allocates nothing once `out` has room
/// for the successors; one instance serves one thread. Throws
/// StateOutOfDomain for a successor outside the space.
class ProgramSuccessors {
 public:
  ProgramSuccessors(const StateSpace& space, std::vector<std::size_t> actions);
  std::size_t successors(std::uint64_t code, std::vector<std::uint64_t>& out);

 private:
  const StateSpace* space_;
  SuccessorCodes codes_;
  State scratch_;
};

namespace detail {

inline constexpr std::uint8_t kFlagS = 1;  ///< state satisfies S
inline constexpr std::uint8_t kFlagT = 2;  ///< state satisfies T

/// Bump the checker.convergence.* counters from a finished report (called
/// by both cores, so the serial oracle and the engine share it).
void record_convergence_metrics(const ConvergenceReport& report);

}  // namespace detail

}  // namespace nonmask
