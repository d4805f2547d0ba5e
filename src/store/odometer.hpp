// Incremental mixed-radix decoding for full-range scans.
//
// StateSpace::decode_into costs one division per variable per code; at 10^8
// states times several sweeps that dominates scan time. Consecutive codes
// differ like an odometer (variable 0 has stride 1), so a cursor walking a
// contiguous range can ripple-increment the decoded state in O(1)
// amortized. Every full-range scan (the engine's flags, closure, S-sweep
// and seed scans, and the obligation scan of checker/preserves.hpp)
// iterates through this instead of decoding. Header-only, so the checker
// layer below the engine scans with it too.
#pragma once

#include <cstdint>
#include <vector>

#include "checker/state_space.hpp"
#include "core/program.hpp"
#include "core/state.hpp"

namespace nonmask::store {

/// Forward iteration over a contiguous code range [code, end) with the
/// decoded state maintained incrementally. `state()` is the decoded form
/// of `code()`; `advance()` steps both in O(1) amortized.
class OdometerCursor {
 public:
  OdometerCursor(const StateSpace& space, std::uint64_t code)
      : code_(code), state_(space.program().num_variables()) {
    const Program& p = space.program();
    lo_.reserve(p.num_variables());
    hi_.reserve(p.num_variables());
    for (std::uint32_t i = 0; i < p.num_variables(); ++i) {
      lo_.push_back(p.variable(VarId(i)).lo);
      hi_.push_back(p.variable(VarId(i)).hi);
    }
    if (code < space.size()) space.decode_into(code, state_);
  }

  std::uint64_t code() const noexcept { return code_; }
  const State& state() const noexcept { return state_; }

  void advance() {
    ++code_;
    // Variable 0 has stride 1 in the mixed-radix code, so the decoded
    // state increments like an odometer with the lowest digit first.
    for (std::size_t i = 0; i < lo_.size(); ++i) {
      const VarId id(static_cast<std::uint32_t>(i));
      const Value v = state_.get(id);
      if (v < hi_[i]) {
        state_.set(id, v + 1);
        return;
      }
      state_.set(id, lo_[i]);
    }
  }

 private:
  std::uint64_t code_;
  State state_;
  std::vector<Value> lo_;  ///< per-variable domain lower bound
  std::vector<Value> hi_;  ///< per-variable domain upper bound
};

}  // namespace nonmask::store
