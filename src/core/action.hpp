// Guarded-command actions.
//
// Section 2: each action has the form  <guard> -> <statement>. We additionally
// record the action's *kind* (closure / convergence / fault, per the paper's
// Section 3 design method) and its declared read and write variable sets,
// which are the raw material of constraint graphs (Section 4). The engine can
// verify, by executing on a copy, that a statement writes only its declared
// variables.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/state.hpp"
#include "core/variable.hpp"

namespace nonmask {

class SuccessorTable;  // core/successor_table.hpp

/// Guard: boolean expression over program variables.
using GuardFn = std::function<bool(const State&)>;

/// Statement: terminating update of zero or more program variables,
/// performed in place.
using StatementFn = std::function<void(State&)>;

/// The role an action plays in the paper's design method.
enum class ActionKind {
  kClosure,      ///< performs the intended computation; preserves S and T
  kConvergence,  ///< re-establishes a violated constraint; preserves T
  kFault,        ///< models a fault as a state-changing action (Section 3)
  /// An *unchangeable environment* action (Roohitavaf–Kulkarni): a guarded
  /// transition the program can neither schedule away nor revert — its
  /// written variables must not be written by any closure or convergence
  /// action (checker/restricted.hpp validates this). Unlike kFault,
  /// environment actions are part of the transition system proper: daemons
  /// schedule them and every checker pass (closure, convergence,
  /// fault-span) explores them alongside program actions.
  kEnvironment,
};

const char* to_string(ActionKind kind) noexcept;

/// A guarded action with declared read/write sets.
class Action {
 public:
  Action() = default;
  Action(std::string name, ActionKind kind, GuardFn guard,
         StatementFn statement, std::vector<VarId> reads,
         std::vector<VarId> writes, int process = -1)
      : name_(std::move(name)),
        kind_(kind),
        guard_(std::move(guard)),
        statement_(std::move(statement)),
        sets_(std::make_shared<const Sets>(
            Sets{std::move(reads), std::move(writes), nullptr})),
        process_(process) {}

  const std::string& name() const noexcept { return name_; }
  ActionKind kind() const noexcept { return kind_; }
  int process() const noexcept { return process_; }

  /// Index of the invariant constraint this convergence action establishes,
  /// or -1 when not applicable. Set by ProgramBuilder / protocol designers.
  int constraint_id() const noexcept { return constraint_id_; }
  void set_constraint_id(int id) noexcept { constraint_id_ = id; }

  const std::vector<VarId>& reads() const noexcept { return sets_->reads; }
  const std::vector<VarId>& writes() const noexcept { return sets_->writes; }

  bool enabled(const State& s) const { return guard_(s); }

  /// The guard itself (copyable — used by predicates derived from guards,
  /// e.g. "exactly one machine privileged").
  const GuardFn& guard() const noexcept { return guard_; }

  /// Execute the statement in place. Precondition: enabled(s) — not checked
  /// here because fault actions are applied regardless of guards by the
  /// injector, and the checker manages guards itself.
  void execute(State& s) const { statement_(s); }

  /// Build the successor of `s` in `next`: copy `s` into `next`'s existing
  /// storage and run the statement there. Once `next` has held a state of
  /// this program, no allocation happens — the form the checker's hot loops
  /// use, each with a scratch successor it owns.
  void apply_into(const State& s, State& next) const {
    next = s;
    statement_(next);
  }

  /// The successor of `s` as a fresh state, for callers that keep it.
  State apply(const State& s) const {
    State next;
    apply_into(s, next);
    return next;
  }

  /// The action's successor table (core/successor_table.hpp), or null for
  /// an action whose successors only its closures give. Copies of the
  /// action share it; setting it gives this action (and its later copies)
  /// sets of their own.
  const std::shared_ptr<const SuccessorTable>& successor_table()
      const noexcept {
    return sets_->table;
  }
  void set_successor_table(std::shared_ptr<const SuccessorTable> table) {
    sets_ = std::make_shared<const Sets>(
        Sets{sets_->reads, sets_->writes, std::move(table)});
  }

  /// Verify the write-set contract at one state: executing the statement
  /// must change no variable outside writes(). Returns the ids of variables
  /// illegally modified (empty = contract honored at s).
  std::vector<VarId> contract_violations(const State& s) const;

 private:
  /// What no caller changes once the action is built, shared by its
  /// copies. Keeping it behind one pointer holds an Action at 128 bytes:
  /// the checker's successor loops step through the actions' guards and
  /// statements, and with the table pointer as a member of its own (176
  /// bytes) they took 4-5% longer per state on the C++ 6x8 ring.
  struct Sets {
    std::vector<VarId> reads;
    std::vector<VarId> writes;
    std::shared_ptr<const SuccessorTable> table;
  };

  std::string name_;
  ActionKind kind_ = ActionKind::kClosure;
  GuardFn guard_;
  StatementFn statement_;
  std::shared_ptr<const Sets> sets_ = std::make_shared<const Sets>();
  int process_ = -1;
  int constraint_id_ = -1;
};

}  // namespace nonmask
