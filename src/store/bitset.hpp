// Compact per-state bookkeeping.
//
// The dense oracle allocates a byte (or more) per code for flags and DFS
// colors — 100+ MB per array at 10^8 states, which is what capped
// exhaustive checking at ~32M. TwoBitArray packs the same information at
// 2 bits per state (S/T flags, DFS colors, the adversary's on-stack
// marks). BFS dedup goes through StateSet (checker/fault_span.hpp).
#pragma once

#include <cstdint>
#include <vector>

namespace nonmask::store {

/// Packed 2-bit-per-entry array (values 0..3). Not thread-safe for
/// overlapping words; the store sweeps write it from disjoint chunks of
/// >= 32 entries aligned to the chunk grain, or serially.
class TwoBitArray {
 public:
  TwoBitArray() = default;
  explicit TwoBitArray(std::uint64_t entries)
      : words_((entries * 2 + 63) / 64, 0) {}

  std::uint8_t operator[](std::uint64_t i) const noexcept {
    return static_cast<std::uint8_t>(
        (words_[i >> 5] >> ((i & 31) * 2)) & 3);
  }

  void set(std::uint64_t i, std::uint8_t v) noexcept {
    std::uint64_t& w = words_[i >> 5];
    const unsigned shift = (i & 31) * 2;
    w = (w & ~(std::uint64_t{3} << shift)) |
        (static_cast<std::uint64_t>(v & 3) << shift);
  }

  std::uint64_t bytes() const noexcept {
    return words_.size() * sizeof(std::uint64_t);
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace nonmask::store
