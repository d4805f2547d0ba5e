// Candidate grammar for convergence-action synthesis.
//
// Section 3's recipe fixes the *shape* of a convergence action for a
// constraint c: the guard is ¬c and the statement re-establishes c while
// preserving T. The synthesizer searches the statement space. This module
// enumerates that space deterministically:
//   - the writable variables are the constraint's support, grouped into
//     *write groups* by owning process (a distributed action may only
//     write one process's variables; shared variables form singleton
//     groups);
//   - each written variable is assigned one of a small set of expression
//     templates over the support (copy another variable, increment /
//     decrement, minimum excludant, a small constant), all of which stay
//     within the target's domain by construction;
//   - candidates are ordered so that fewer-write, simpler statements come
//     first — ties broken by the fixed template order — giving a stable,
//     seed-independent enumeration the CEGIS loop indexes into.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/action.hpp"
#include "core/predicate.hpp"
#include "core/program.hpp"

namespace nonmask::synth {

/// Expression templates a candidate assignment can use. All of them produce
/// in-domain values for the target variable.
enum class ExprKind {
  kCopy,   ///< target := source, clamped into target's domain (enumerated
           ///  only when the two domains overlap)
  kDec,    ///< target := max(lo, target - 1)
  kInc,    ///< target := min(hi, target + 1)
  kMex,    ///< target := least domain value differing from every other
           ///  support variable's value (unchanged when none exists)
  kConst,  ///< target := k, for domains of at most 4 values
};

const char* to_string(ExprKind kind) noexcept;

/// One assignment template: target := expr(support).
struct AssignTemplate {
  VarId target;
  ExprKind kind = ExprKind::kConst;
  VarId source;          ///< kCopy only
  Value constant = 0;    ///< kConst only
  /// kMex only: the variables whose values the target must avoid.
  std::vector<VarId> mex_over;
};

/// A candidate convergence action for one constraint: guard ¬c plus a
/// simultaneous multi-assignment over one write group. Plain data until
/// build() turns it into an executable Action.
struct ActionCandidate {
  std::size_t constraint_index = 0;
  /// Distinct targets, all within one write group; evaluated
  /// simultaneously (every right-hand side reads the pre-state).
  std::vector<AssignTemplate> assigns;

  /// Human-readable rendering, e.g. "y := x, z := max(lo, z-1)".
  std::string describe(const Program& program) const;

  /// Materialize the executable action: guard ¬c, statement = simultaneous
  /// assignment, reads = the constraint's support, writes = the targets,
  /// constraint_id = constraint_index.
  Action build(const Program& program, const Constraint& constraint) const;
};

struct GrammarOptions {
  /// When nonempty, only these variables may be assigned. Use to model
  /// which processes are allowed to correct a constraint (e.g. "only the
  /// raising process may write x").
  std::vector<VarId> writable;
};

/// Enumerate candidate convergence actions for constraint `cid` of
/// `invariant`, in the deterministic order described above, keeping the
/// first 512. The result may be empty (no support variable is writable).
std::vector<ActionCandidate> enumerate_candidates(
    const Program& program, const Invariant& invariant, std::size_t cid,
    const GrammarOptions& opts = {});

}  // namespace nonmask::synth
