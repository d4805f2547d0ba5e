// Successor tables: an action's transitions by lookup.
//
// An action whose guard and statement read and write only a few
// small-domain variables, its *footprint*, has a transition relation that
// is a function of the footprint's values: at every state where the
// footprint takes a given combination, the action is disabled, or it
// writes a value outside some variable's domain, or its successor's code
// differs from the state's own by the same offset,
//
//   sum over footprint variables w of stride_w * (new_w - old_w),
//
// where stride_w is w's stride in the mixed-radix state code
// (checker/state_space.hpp). A successor table holds that answer for every
// combination, so the successor code of a decoded state costs one index
// computation, one load and one add instead of a guard call, a state copy,
// the statement and an encode.
//
// The action stays the definition. Its guard and statement fill the table
// on the first lookup, once however many threads look up — entry i is
// their answer on the state whose footprint takes the i-th combination
// with every other variable at its lower bound, which is exact because
// they touch nothing outside the footprint. An entry that leaves a domain
// sends the caller back to the closures, so the encode that rejects the
// successor names the variable as before.
//
// The offsets assume one variable layout (each variable's domain, in VarId
// order). Actions are copied between programs (compose_byzantine,
// Design::candidate, synthesis), so a table records its layout and a
// caller uses it only on a program with that layout (fits()).
//
// The spec compiler (spec/compile.cpp) gives tables to the closure,
// convergence and environment actions whose footprint spans at most 4,096
// combinations, within a budget of the design's state count. Hand-coded
// actions have none: nothing derives what their closures read.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "core/state.hpp"
#include "core/variable.hpp"

namespace nonmask {

class Action;
class Program;

class SuccessorTable {
 public:
  /// Entries other than a successor's code offset.
  static constexpr std::int64_t kDisabled =
      std::numeric_limits<std::int64_t>::min();
  static constexpr std::int64_t kLeavesDomain = kDisabled + 1;

  /// One footprint variable: its domain [lo, lo + size), its stride in the
  /// table's index (the first digit varies fastest) and in the state code.
  struct Digit {
    VarId var;
    Value lo = 0;
    std::uint32_t size = 1;
    std::uint32_t stride = 1;
    std::int64_t code_stride = 1;
  };

  /// A table over `footprint`, which must hold every variable the action's
  /// guard and statement read or write, for states of `program`'s layout.
  /// Preconditions: the footprint spans fewer than 2^32 combinations, and
  /// the program fewer than 2^62 states, so that every offset and the two
  /// markers fit an int64.
  SuccessorTable(const Program& program, const std::vector<VarId>& footprint);

  /// True iff `program`'s variables have the layout the offsets assume.
  bool fits(const Program& program) const;

  /// The entries in index order, filled from `action`, the action that
  /// holds the table, on the first call. The entry of a state of the
  /// table's layout with every value in its domain, at index(digits(), s),
  /// is kDisabled, kLeavesDomain, or its successor's code minus its own.
  const std::int64_t* values(const Action& action) const {
    const std::int64_t* entries = entries_.load(std::memory_order_acquire);
    return entries != nullptr ? entries : fill(action);
  }

  /// The index of `s` in a table over the digits [first, last), a copy of
  /// digits() or the whole of it.
  static std::uint32_t index(const Digit* first, const Digit* last,
                             const State& s) {
    std::uint32_t index = 0;
    for (; first != last; ++first) {
      index += static_cast<std::uint32_t>(s.get(first->var) - first->lo) *
               first->stride;
    }
    return index;
  }

  /// For inspection: the footprint, the entry count, and whether a lookup
  /// has filled the table.
  const std::vector<Digit>& digits() const noexcept { return digits_; }
  std::uint32_t entries() const noexcept { return entries_count_; }
  bool filled() const noexcept {
    return entries_.load(std::memory_order_acquire) != nullptr;
  }

 private:
  const std::int64_t* fill(const Action& action) const;

  std::vector<Digit> digits_;
  std::uint32_t entries_count_ = 1;
  std::vector<Value> lo_;              ///< by variable: the layout
  std::vector<std::uint64_t> size_;    ///< by variable: the layout
  mutable std::once_flag once_;
  mutable std::unique_ptr<std::int64_t[]> values_;
  mutable std::atomic<const std::int64_t*> entries_{nullptr};
};

}  // namespace nonmask
