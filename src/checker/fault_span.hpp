// Fault-span computation (Section 3).
//
// The paper designs T by hand and checks it is closed under program *and*
// fault actions. This module computes the canonical choice mechanically:
// the set of states reachable from S under the program together with a
// given fault class is the *smallest* valid fault-span containing S. The
// result is an explicit state set usable as a predicate, so designers can
//   (1) discover what T their fault class actually induces,
//   (2) verify a hand-written T contains it, and
//   (3) run convergence checking against the induced T.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "checker/state_space.hpp"
#include "core/predicate.hpp"
#include "core/program.hpp"

namespace nonmask {

/// An explicit set of states over a StateSpace, exposed as a predicate.
class StateSet {
 public:
  explicit StateSet(const StateSpace& space)
      : space_(&space), members_(space.size(), 0) {}

  bool contains(const State& s) const {
    return members_[space_->encode(s)] != 0;
  }
  bool contains_code(std::uint64_t code) const { return members_[code] != 0; }
  void insert_code(std::uint64_t code) {
    if (members_[code] == 0) {
      members_[code] = 1;
      ++count_;
    }
  }
  std::uint64_t size() const noexcept { return count_; }
  const StateSpace& space() const noexcept { return *space_; }

  /// View this set as a predicate. The StateSet must outlive the result,
  /// so the predicate holds a shared copy of the membership vector.
  PredicateFn as_predicate() const;

 private:
  const StateSpace* space_;
  std::vector<std::uint8_t> members_;
  std::uint64_t count_ = 0;
};

struct FaultSpanOptions {
  /// Fire fault actions regardless of their guards? The paper models
  /// faults as guarded actions; by default guards are respected.
  bool respect_fault_guards = true;
  /// Additional cap on explored states (0 = the space's own size).
  std::uint64_t max_states = 0;
};

/// BFS closure of `start` under the given actions (typically: all non-fault
/// program actions plus the fault class under study).
StateSet compute_reachable(const StateSpace& space, const PredicateFn& start,
                           const std::vector<std::size_t>& actions,
                           const FaultSpanOptions& opts = {});

/// The induced fault-span: states reachable from S under program actions
/// plus the given fault actions.
StateSet compute_fault_span(const StateSpace& space, const PredicateFn& S,
                            const std::vector<std::size_t>& fault_actions,
                            const FaultSpanOptions& opts = {});

struct Design;  // core/candidate.hpp

/// End-to-end verification of a design against a concrete fault class:
/// compute the induced span reach(S), check it is contained in the
/// declared T, and check convergence from it. This is the Section 3
/// definition instantiated with the *smallest* valid fault-span.
struct FaultClassReport {
  std::uint64_t induced_span_size = 0;
  bool span_within_declared_T = false;
  bool converges_from_span = false;
  bool tolerant() const noexcept {
    return span_within_declared_T && converges_from_span;
  }
};

FaultClassReport verify_against_fault_class(
    const StateSpace& space, const Design& design,
    const std::vector<std::size_t>& fault_actions,
    bool weakly_fair = false);

namespace detail {

/// Successor codes of `code` under `actions` with the fault-guard policy of
/// `opts`, in action order (not deduplicated) — the exact expansion order
/// of the serial BFS. The engine's FrontierEngine expands frontier nodes
/// with the same helper and merges in node order, so the resulting sets
/// (including `max_states`-capped ones) are identical. `code` is decoded
/// into `scratch` and each successor built in `next`, both owned by the
/// calling thread.
void expand_reachable(const StateSpace& space,
                      const std::vector<std::size_t>& actions,
                      const FaultSpanOptions& opts, std::uint64_t code,
                      State& scratch, State& next,
                      std::vector<std::uint64_t>& out);

}  // namespace detail

}  // namespace nonmask
