#include "spec/footprint.hpp"

#include "spec/expr.hpp"

namespace nonmask::spec {

const Value* FootprintTable::filled() const {
  owner_.fill();
  return values_.load(std::memory_order_acquire);
}

FootprintTables::FootprintTables(const Program& program)
    : budget_(program.state_count().value_or(~std::uint64_t{0})) {
  lo_.reserve(program.num_variables());
  size_.reserve(program.num_variables());
  for (const VariableSpec& v : program.variables()) {
    lo_.push_back(v.lo);
    size_.push_back(v.domain_size());
  }
}

std::uint64_t FootprintTables::entries_over(
    const std::vector<VarId>& reads) const {
  std::uint64_t entries = 1;
  for (VarId id : reads) {
    // At most kMaxEntries * 2^32 before the check: no overflow.
    entries *= size_[id.index()];
    if (entries > kMaxEntries) return 0;
  }
  return entries;
}

void FootprintTables::tabulate(CompiledExpr& e) {
  if (e.is_const || e.var.valid() || e.table != nullptr) return;
  const std::uint64_t entries = entries_over(e.reads);
  if (entries == 0 || entries > budget_ - entries_) return;
  std::vector<FootprintTable::Digit> digits;
  digits.reserve(e.reads.size());
  std::uint32_t stride = 1;
  for (VarId id : e.reads) {
    const auto size = static_cast<std::uint32_t>(size_[id.index()]);
    digits.push_back({id, lo_[id.index()], size, stride});
    stride *= size;
  }
  entries_ += entries;
  const FootprintTable& table =
      tables_.emplace_back(*this, std::move(digits),
                           static_cast<std::uint32_t>(entries),
                           std::move(e.fn));
  e.fn = nullptr;
  e.table = std::shared_ptr<const FootprintTable>(shared_from_this(), &table);
}

void FootprintTables::fill() const {
  std::call_once(once_, [this] {
    std::unique_ptr<Value[]> arena(new Value[entries_]);
    State s(lo_);  // every variable at lo; each table's loop ends there too
    Value* out = arena.get();
    for (const FootprintTable& t : tables_) {
      for (std::uint32_t i = 0; i < t.entries_; ++i) {
        out[i] = t.closure_(s);
        // Odometer step over the footprint, the first digit fastest.
        for (const FootprintTable::Digit& d : t.digits_) {
          const Value v = s.get(d.var);
          if (static_cast<std::uint32_t>(v - d.lo) + 1 < d.size) {
            s.set(d.var, v + 1);
            break;
          }
          s.set(d.var, d.lo);
        }
      }
      out += t.entries_;
    }
    // Nothing is published until every table is filled: if a closure
    // throws, call_once runs the fill again and no lookup has seen it.
    values_ = std::move(arena);
    const Value* start = values_.get();
    for (const FootprintTable& t : tables_) {
      t.values_.store(start, std::memory_order_release);
      start += t.entries_;
    }
  });
}

}  // namespace nonmask::spec
