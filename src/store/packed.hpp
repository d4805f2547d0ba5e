// Bit-packed state representation.
//
// A State stores one 32-bit Value per variable; at 10^8+ states that is
// both too big to intern and too slow to hash. PackedLayout assigns every
// variable ceil(log2(domain)) bits (offset from its domain lower bound), so
// a whole state packs into ceil(total_bits / 64) machine words — e.g. the
// 9-node Dijkstra ring with K=12 packs 9 x 4 bits into one word instead of
// 36 bytes. The packed form is the unit the arena store, the concurrent
// set, and the frontier engine all operate on.
//
// The companion OdometerCursor (store/odometer.hpp) removes the other
// per-state cost of the dense scans: decoding a mixed-radix code takes one
// div+mod per variable, but consecutive codes differ like an odometer, so a
// full-range scan can ripple-increment the decoded state in O(1) amortized
// instead.
#pragma once

#include <cstdint>
#include <vector>

#include "core/program.hpp"
#include "core/state.hpp"

namespace nonmask::store {

/// Per-variable bit-field layout over a Program's variables.
class PackedLayout {
 public:
  explicit PackedLayout(const Program& program);

  const Program& program() const noexcept { return *program_; }
  /// Words per packed state (>= 1 even for zero-bit layouts).
  std::size_t words() const noexcept { return words_; }
  std::size_t total_bits() const noexcept { return total_bits_; }
  /// Bits assigned to variable i (0 when its domain has a single value).
  unsigned width(std::size_t i) const { return fields_[i].width; }

  /// Pack `s` (must be in-domain) into `out[0 .. words())`.
  void pack(const State& s, std::uint64_t* out) const;
  /// Unpack into an existing state (sized for the program).
  void unpack(const std::uint64_t* words, State& s) const;

  /// Seeded mixing-finalizer hash over the packed words: FNV-1a fold of
  /// the words followed by a splitmix64 avalanche, so every output bit
  /// depends on every input bit — shard selection uses the *high* bits and
  /// open-addressing probes the low bits, both of which need avalanche
  /// that plain FNV-1a does not provide.
  std::uint64_t hash(const std::uint64_t* words,
                     std::uint64_t seed) const noexcept;

  friend bool equal(const PackedLayout& layout, const std::uint64_t* a,
                    const std::uint64_t* b) noexcept {
    for (std::size_t w = 0; w < layout.words_; ++w) {
      if (a[w] != b[w]) return false;
    }
    return true;
  }

 private:
  struct Field {
    std::uint32_t word;    ///< index of the (first) word holding the field
    unsigned shift;        ///< bit offset within that word
    unsigned width;        ///< bits (fields never straddle a word boundary)
    Value lo;              ///< domain lower bound (packed value = v - lo)
  };

  const Program* program_;
  std::vector<Field> fields_;
  std::size_t words_ = 1;
  std::size_t total_bits_ = 0;
};

}  // namespace nonmask::store
