// Programs: a finite set of variables and a finite set of guarded actions
// (Section 2), plus the conveniences every other module builds on: state
// construction, enabled-action queries, domain sanitation, random states,
// and pretty printing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/action.hpp"
#include "core/state.hpp"
#include "core/variable.hpp"
#include "util/rng.hpp"

namespace nonmask {

class Program {
 public:
  Program() = default;
  explicit Program(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- variables ---------------------------------------------------------

  VarId add_variable(VariableSpec spec);
  std::size_t num_variables() const noexcept { return variables_.size(); }
  const VariableSpec& variable(VarId id) const {
    return variables_.at(id.index());
  }
  const std::vector<VariableSpec>& variables() const noexcept {
    return variables_;
  }
  /// Find a variable by name; returns an invalid VarId when absent.
  VarId find_variable(const std::string& name) const noexcept;

  // --- actions ------------------------------------------------------------

  std::size_t add_action(Action action);
  std::size_t num_actions() const noexcept { return actions_.size(); }
  const Action& action(std::size_t i) const { return actions_.at(i); }
  const std::vector<Action>& actions() const noexcept { return actions_; }

  /// Indices of actions of the given kind.
  std::vector<std::size_t> actions_of_kind(ActionKind kind) const;

  /// Indices of actions enabled at s (fault actions excluded: faults are
  /// applied by the injector, never scheduled by daemons).
  std::vector<std::size_t> enabled_actions(const State& s) const;
  /// The same indices into `out`, replacing its contents: a caller that
  /// keeps `out` across calls allocates only when it must grow.
  void enabled_actions(const State& s, std::vector<std::size_t>& out) const;

  /// True iff some non-fault action is enabled at s.
  bool any_enabled(const State& s) const;

  // --- states -------------------------------------------------------------

  /// The all-minimum state (every variable at its domain lower bound).
  State initial_state() const;

  /// Total number of states (product of domain sizes); nullopt iff the
  /// product overflows uint64_t (exact detection, no conservative bound).
  std::optional<std::uint64_t> state_count() const noexcept;

  /// Uniformly random state over the full domain product.
  State random_state(Rng& rng) const;

  /// True iff every variable's value lies within its declared domain.
  bool in_domain(const State& s) const noexcept;

  /// Clamp all values into their domains.
  void clamp(State& s) const noexcept;

  /// Render "name=value, ..." for diagnostics.
  std::string format_state(const State& s) const;

  /// Run the write-set contract check of every action against `s`;
  /// returns a human-readable report of violations (empty = clean).
  std::string check_contracts(const State& s) const;

 private:
  std::string name_;
  std::vector<VariableSpec> variables_;
  std::vector<Action> actions_;
};

}  // namespace nonmask
