// Footprint tables: spec expressions evaluated by lookup.
//
// A spec's guards, assignments and constraints are locally checkable: each
// reads a few small-domain variables, its *footprint* (the derived read set
// of its compiled expression). When the footprint spans few value
// combinations, the expression's value at every one of them fits in a small
// table indexed by the footprint's digits, and evaluating the expression
// costs one index computation and one load instead of a walk over a tree of
// closures.
//
// The closure stays the definition. It fills the table — entry i is its
// value on a state whose footprint takes the i-th combination, every other
// variable at its lower bound, which is exact because the closure reads
// nothing outside its footprint — and it answers every state with a
// footprint value outside its domain, so out-of-domain states (successors
// that a statement wrote past a domain) evaluate exactly as before.
//
// The compiler (spec/compile.cpp) gives a table to every maximal
// subexpression whose footprint spans at most kMaxEntries combinations,
// apart from constants and lone variable reads: a node inside a tabulated
// node gets none of its own. The tables of one compiled design are filled
// together, once, on the first evaluation of any of them, and never cost
// more entries than the design has states; past that budget the remaining
// nodes keep their closures, chosen in compile order.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/program.hpp"
#include "core/state.hpp"
#include "core/variable.hpp"

namespace nonmask::spec {

struct CompiledExpr;
class FootprintTables;

/// One expression's values over every combination of its footprint.
class FootprintTable {
 public:
  /// One footprint variable: its domain [lo, lo + size) and the stride of
  /// its offset in the table's index (the first digit varies fastest).
  struct Digit {
    VarId var;
    Value lo = 0;
    std::uint32_t size = 1;
    std::uint32_t stride = 1;
  };

  FootprintTable(const FootprintTables& owner, std::vector<Digit> digits,
                 std::uint32_t entries,
                 std::function<Value(const State&)> closure)
      : owner_(owner),
        digits_(std::move(digits)),
        entries_(entries),
        closure_(std::move(closure)) {}

  /// The expression's value at `s`: one load when every footprint value
  /// lies in its domain, the closure otherwise. The first call on any
  /// table of the design fills them all.
  Value eval(const State& s) const {
    const Value* values = values_.load(std::memory_order_acquire);
    if (values == nullptr) values = filled();
    std::uint32_t index = 0;
    for (const Digit& d : digits_) {
      // Unsigned wrap-around: a value below lo lands past size too.
      const std::uint32_t offset = static_cast<std::uint32_t>(s.get(d.var)) -
                                   static_cast<std::uint32_t>(d.lo);
      if (offset >= d.size) return closure_(s);
      index += offset * d.stride;
    }
    return values[index];
  }

  /// For inspection: the footprint, the entry count and the closure (the
  /// expression's definition).
  const std::vector<Digit>& digits() const noexcept { return digits_; }
  std::uint32_t entries() const noexcept { return entries_; }
  const std::function<Value(const State&)>& closure() const noexcept {
    return closure_;
  }

 private:
  friend class FootprintTables;

  /// Fill the design's tables (once) and return this one's entries.
  const Value* filled() const;

  const FootprintTables& owner_;
  std::vector<Digit> digits_;
  std::uint32_t entries_;
  std::function<Value(const State&)> closure_;
  mutable std::atomic<const Value*> values_{nullptr};
};

/// The footprint tables of one compiled design. Shared by the closures
/// that look them up, so the tables live as long as any copy of the design.
class FootprintTables
    : public std::enable_shared_from_this<FootprintTables> {
 public:
  /// Most entries one table may have: 16 KiB of Values, which fit in L1.
  static constexpr std::uint64_t kMaxEntries = 4096;

  /// Tables over `program`'s variables, every one of which must already be
  /// declared. The budget is the program's state count.
  explicit FootprintTables(const Program& program);

  /// Entries of a table over `reads`, or 0 when they would exceed
  /// kMaxEntries.
  std::uint64_t entries_over(const std::vector<VarId>& reads) const;

  /// Give `e` a table when it is neither a constant nor a lone variable
  /// read, its footprint spans at most kMaxEntries combinations, and the
  /// budget has room. Its closure moves into the table.
  void tabulate(CompiledExpr& e);

  /// Fill every table, exactly once however many threads call.
  void fill() const;

  /// The tables in compile order, and their entries together (never more
  /// than the program's state count): for inspection.
  std::size_t size() const noexcept { return tables_.size(); }
  const FootprintTable& at(std::size_t i) const { return tables_.at(i); }
  std::uint64_t entries() const noexcept { return entries_; }

 private:
  std::vector<Value> lo_;              ///< by variable: the fill's base state
  std::vector<std::uint64_t> size_;    ///< by variable: domain size
  std::uint64_t budget_ = 0;
  std::uint64_t entries_ = 0;
  std::deque<FootprintTable> tables_;  ///< stable addresses; compile order
  mutable std::once_flag once_;
  mutable std::unique_ptr<Value[]> values_;  ///< every table's entries
};

}  // namespace nonmask::spec
