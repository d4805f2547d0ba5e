// Incremental mixed-radix decoding for full-range scans.
//
// StateSpace::decode_into costs one division per variable per code; at 10^8
// states times several sweeps that dominates scan time. Consecutive codes
// differ like an odometer (variable 0 has stride 1), so a cursor walking a
// contiguous range can ripple-increment the decoded state in O(1)
// amortized. Every store-side scan (flags, closure, seed, backward rounds)
// iterates through this instead of decoding.
#pragma once

#include <cstdint>
#include <vector>

#include "checker/state_space.hpp"
#include "core/state.hpp"

namespace nonmask::store {

/// Forward iteration over a contiguous code range [code, end) with the
/// decoded state maintained incrementally. `state()` is the decoded form
/// of `code()`; `advance()` steps both in O(1) amortized.
class OdometerCursor {
 public:
  OdometerCursor(const StateSpace& space, std::uint64_t code);

  std::uint64_t code() const noexcept { return code_; }
  const State& state() const noexcept { return state_; }

  void advance();

 private:
  const StateSpace* space_;
  std::uint64_t code_;
  State state_;
  std::vector<Value> lo_;  ///< per-variable domain lower bound
  std::vector<Value> hi_;  ///< per-variable domain upper bound
};

}  // namespace nonmask::store
