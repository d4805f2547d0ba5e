// Fluent construction of programs.
//
// ProgramBuilder keeps protocol definitions close to the paper's notation:
// declare variables, then write guarded actions with explicit read/write
// sets. Convergence actions are linked to the invariant constraint they
// establish (Section 3's one-action-per-constraint recipe).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/action.hpp"
#include "core/predicate.hpp"
#include "core/program.hpp"

namespace nonmask {

class ProgramBuilder {
 public:
  explicit ProgramBuilder(std::string name) : program_(std::move(name)) {}

  /// Declare an integer variable with inclusive domain [lo, hi].
  VarId var(std::string name, Value lo, Value hi,
            int process = VariableSpec::kNoProcess) {
    return program_.add_variable(
        VariableSpec(std::move(name), lo, hi, process));
  }

  /// Declare a boolean variable (domain {0, 1}).
  VarId boolean(std::string name, int process = VariableSpec::kNoProcess) {
    return var(std::move(name), 0, 1, process);
  }

  /// Add a closure action (performs the intended computation).
  ProgramBuilder& closure(std::string name, GuardFn guard,
                          StatementFn statement, std::vector<VarId> reads,
                          std::vector<VarId> writes, int process = -1) {
    program_.add_action(Action(std::move(name), ActionKind::kClosure,
                               std::move(guard), std::move(statement),
                               std::move(reads), std::move(writes), process));
    return *this;
  }

  /// Add a convergence action establishing invariant constraint
  /// `constraint_id` (index into the protocol's Invariant).
  ProgramBuilder& convergence(std::string name, GuardFn guard,
                              StatementFn statement, std::vector<VarId> reads,
                              std::vector<VarId> writes, int constraint_id,
                              int process = -1) {
    Action a(std::move(name), ActionKind::kConvergence, std::move(guard),
             std::move(statement), std::move(reads), std::move(writes),
             process);
    a.set_constraint_id(constraint_id);
    program_.add_action(std::move(a));
    return *this;
  }

  /// Add an *unchangeable environment* action: a guarded transition outside
  /// the program's control that daemons schedule and checkers explore
  /// alongside program actions, but whose written variables no closure or
  /// convergence action may write (checker/restricted.hpp validates this).
  ProgramBuilder& environment(std::string name, GuardFn guard,
                              StatementFn statement, std::vector<VarId> reads,
                              std::vector<VarId> writes, int process = -1) {
    program_.add_action(Action(std::move(name), ActionKind::kEnvironment,
                               std::move(guard), std::move(statement),
                               std::move(reads), std::move(writes), process));
    return *this;
  }

  /// Add a fault action (applied by injectors, never by daemons).
  ProgramBuilder& fault(std::string name, GuardFn guard, StatementFn statement,
                        std::vector<VarId> reads, std::vector<VarId> writes,
                        int process = -1) {
    program_.add_action(Action(std::move(name), ActionKind::kFault,
                               std::move(guard), std::move(statement),
                               std::move(reads), std::move(writes), process));
    return *this;
  }

  /// Add an action built elsewhere, as it is.
  ProgramBuilder& action(Action action) {
    program_.add_action(std::move(action));
    return *this;
  }

  const Program& peek() const noexcept { return program_; }
  Program build() { return std::move(program_); }

 private:
  Program program_;
};

}  // namespace nonmask
