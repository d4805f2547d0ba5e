// The successor codes of a decoded state: the one successor primitive of
// the check job's loops (ProgramSuccessors, and through it the unfair DFS,
// Tarjan, the prefetch and the adversary; the engine's flag-reading
// closure sweeps; the fair-escape and closed-SCC analysis).
//
// An action with a successor table of the space's layout
// (core/successor_table.hpp) answers by lookup; every other action by its
// closures — guard, apply_into, encode — as before. When no action has a
// table the loop is the closures' alone, with no per-action table test.
// Passes that need the successor *state* (first_failure, expand_reachable,
// a closure check of an arbitrary predicate) keep building it.
#pragma once

#include <cstdint>
#include <vector>

#include "checker/state_space.hpp"
#include "core/program.hpp"
#include "core/state.hpp"
#include "core/successor_table.hpp"

namespace nonmask {

/// One instance serves one thread: it owns the scratch successor state of
/// the closures and its own view of each table (the entries pointer once
/// looked up, the footprint digits side by side). Throws StateOutOfDomain
/// for a successor outside the space.
class SuccessorCodes {
 public:
  /// What successor() returns for an action not enabled at the state.
  static constexpr std::uint64_t kDisabled = ~std::uint64_t{0};

  SuccessorCodes(const StateSpace& space, std::vector<std::size_t> actions)
      : space_(&space),
        actions_(std::move(actions)),
        next_(space.program().num_variables()) {
    const Program& p = space.program();
    slots_.reserve(actions_.size());
    for (std::size_t idx : actions_) {
      const Action& a = p.action(idx);
      Slot slot{&a, nullptr, nullptr, 0, 0};
      const auto& table = a.successor_table();
      if (table != nullptr && table->fits(p)) {
        slot.table = table.get();
        slot.first = static_cast<std::uint32_t>(digits_.size());
        digits_.insert(digits_.end(), table->digits().begin(),
                       table->digits().end());
        slot.last = static_cast<std::uint32_t>(digits_.size());
        tabled_ = true;
      }
      slots_.push_back(slot);
    }
    if (tabled_) {
      gathered_.resize(actions_.size());
      which_.resize(actions_.size());
    }
  }

  /// The program's action indices, in the order successors are generated.
  const std::vector<std::size_t>& actions() const noexcept { return actions_; }

  /// The code of the successor of `s`, whose code is `code`, under the
  /// i-th action of actions(), or kDisabled.
  std::uint64_t successor(std::size_t i, std::uint64_t code, const State& s) {
    const Slot& slot = slots_[i];
    if (slot.entries != nullptr) {
      const std::int64_t entry = slot.entries[index(slot, s)];
      if (entry == SuccessorTable::kDisabled) return kDisabled;
      if (entry != SuccessorTable::kLeavesDomain) {
        return code + static_cast<std::uint64_t>(entry);
      }
    }
    return slow_successor(i, code, s);
  }

  /// fn(i, next) for each action i of actions() enabled at `s` (code
  /// `code`), in order, with `next` its successor's code.
  template <class Fn>
  void for_each(std::uint64_t code, const State& s, Fn&& fn) {
    if (!tabled_) {
      // A range-for: fn may write memory the compiler cannot tell from
      // actions_, and an indexed loop reloaded it per action (+3.5% per
      // state on the C++ 6x8 ring).
      const Program& p = space_->program();
      std::size_t i = 0;
      for (std::size_t idx : actions_) {
        const Action& a = p.action(idx);
        if (a.enabled(s)) {
          a.apply_into(s, next_);
          fn(i, space_->encode(next_));
        }
        ++i;
      }
      return;
    }
    const std::size_t n = gather(code, s);
    for (std::size_t k = 0; k < n; ++k) fn(which_[k], gathered_[k]);
  }

 private:
  struct Slot {
    const Action* action;
    const SuccessorTable* table;    ///< null: the closures answer
    const std::int64_t* entries;    ///< the table's, once looked up
    std::uint32_t first, last;      ///< the table's digits in digits_
  };

  /// The tables' pass of for_each: the codes of the enabled actions'
  /// successors into gathered_[0, n) and their positions into which_,
  /// written with no branch on whether an action is enabled; returns n.
  /// Out of line, so a caller's closure loop for a design without tables
  /// compiles as it would without this one.
  [[gnu::noinline]] std::size_t gather(std::uint64_t code, const State& s) {
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      const Slot& slot = slots_[i];
      if (slot.entries != nullptr) {
        const std::int64_t entry = slot.entries[index(slot, s)];
        if (entry != SuccessorTable::kLeavesDomain) [[likely]] {
          gathered_[n] = code + static_cast<std::uint64_t>(entry);
          which_[n] = i;
          n += entry != SuccessorTable::kDisabled ? 1 : 0;
          continue;
        }
      }
      gathered_[n] = slow_successor(i, code, s);
      which_[n] = i;
      n += gathered_[n] != kDisabled ? 1 : 0;
    }
    return n;
  }

  std::uint32_t index(const Slot& slot, const State& s) const {
    return SuccessorTable::index(digits_.data() + slot.first,
                                 digits_.data() + slot.last, s);
  }

  /// The i-th action's successor code on the paths the lookup loop leaves
  /// out: this instance's first lookup (which fills the table, or finds it
  /// filled), an action without a table, and a successor outside a domain,
  /// which the closures build for encode to reject naming the variable.
  /// Out of line, so the lookup loop stays small.
  [[gnu::noinline]] std::uint64_t slow_successor(std::size_t i,
                                                 std::uint64_t code,
                                                 const State& s) {
    Slot& slot = slots_[i];
    if (slot.table != nullptr && slot.entries == nullptr) {
      slot.entries = slot.table->values(*slot.action);
      return successor(i, code, s);
    }
    if (!slot.action->enabled(s)) return kDisabled;
    slot.action->apply_into(s, next_);
    return space_->encode(next_);
  }

  const StateSpace* space_;
  std::vector<std::size_t> actions_;
  std::vector<Slot> slots_;  ///< by i
  std::vector<SuccessorTable::Digit> digits_;
  bool tabled_ = false;  ///< some action answers by lookup
  State next_;
  std::vector<std::uint64_t> gathered_;  ///< for_each's successor codes
  std::vector<std::uint32_t> which_;     ///< and their positions i
};

}  // namespace nonmask
