#include "core/successor_table.hpp"

#include "core/action.hpp"
#include "core/program.hpp"

namespace nonmask {

SuccessorTable::SuccessorTable(const Program& program,
                               const std::vector<VarId>& footprint) {
  std::vector<std::int64_t> code_stride;
  std::int64_t stride = 1;
  for (const VariableSpec& v : program.variables()) {
    lo_.push_back(v.lo);
    size_.push_back(v.domain_size());
    code_stride.push_back(stride);
    stride *= static_cast<std::int64_t>(v.domain_size());
  }
  digits_.reserve(footprint.size());
  for (VarId id : footprint) {
    const auto size = static_cast<std::uint32_t>(size_[id.index()]);
    digits_.push_back({id, lo_[id.index()], size, entries_count_,
                       code_stride[id.index()]});
    entries_count_ *= size;
  }
}

bool SuccessorTable::fits(const Program& program) const {
  if (program.num_variables() != lo_.size()) return false;
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    const VariableSpec& v = program.variables()[i];
    if (v.lo != lo_[i] || v.domain_size() != size_[i]) return false;
  }
  return true;
}

const std::int64_t* SuccessorTable::fill(const Action& action) const {
  std::call_once(once_, [&] {
    std::unique_ptr<std::int64_t[]> out(new std::int64_t[entries_count_]);
    State s(lo_);  // every variable at lo; the loop below ends there too
    State next(lo_.size());
    for (std::uint32_t i = 0; i < entries_count_; ++i) {
      std::int64_t entry = kDisabled;
      if (action.enabled(s)) {
        action.apply_into(s, next);
        entry = 0;
        for (const Digit& d : digits_) {
          const std::int64_t from = s.get(d.var);
          const std::int64_t to = next.get(d.var);
          if (static_cast<std::uint64_t>(to - d.lo) >= d.size) {
            entry = kLeavesDomain;
            break;
          }
          entry += d.code_stride * (to - from);
        }
      }
      out[i] = entry;
      // Odometer step over the footprint, the first digit fastest.
      for (const Digit& d : digits_) {
        const Value v = s.get(d.var);
        if (static_cast<std::uint32_t>(v - d.lo) + 1 < d.size) {
          s.set(d.var, v + 1);
          break;
        }
        s.set(d.var, d.lo);
      }
    }
    // Published only when complete: if a closure throws, call_once runs
    // the fill again and no lookup has seen a partial table.
    values_ = std::move(out);
    entries_.store(values_.get(), std::memory_order_release);
  });
  return entries_.load(std::memory_order_acquire);
}

}  // namespace nonmask
