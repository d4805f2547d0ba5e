// Compact per-state bookkeeping arrays.
//
// The dense oracle allocates a byte (or more) per code for flags, DFS
// colors, and visited marks — 100+ MB per array at 10^8 states, which is
// what capped exhaustive checking at ~32M. These containers pack the same
// information at 1-2 bits per state:
//
//   AtomicBitSet  1 bit,  concurrent test_and_set (frontier dedup)
//   TwoBitArray   2 bits, serial (S/T flags, DFS colors)
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace nonmask::store {

/// Fixed-size bit set with lock-free concurrent insertion.
class AtomicBitSet {
 public:
  explicit AtomicBitSet(std::uint64_t bits)
      : words_((bits + 63) / 64) {
    for (auto& w : words_) w.store(0, std::memory_order_relaxed);
  }

  /// Set bit i; returns true iff this call changed it (i.e. first setter).
  bool test_and_set(std::uint64_t i) noexcept {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    const std::uint64_t prev =
        words_[i >> 6].fetch_or(mask, std::memory_order_acq_rel);
    return (prev & mask) == 0;
  }

  bool test(std::uint64_t i) const noexcept {
    return (words_[i >> 6].load(std::memory_order_acquire) &
            (std::uint64_t{1} << (i & 63))) != 0;
  }

 private:
  std::vector<std::atomic<std::uint64_t>> words_;
};

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
