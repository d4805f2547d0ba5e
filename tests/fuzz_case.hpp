// Randomly generated designs shared by the fuzzed soundness tests and the
// engine-vs-oracle equivalence tests: small copy-tree and cyclic designs,
// some with an interfering closure action.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/builder.hpp"
#include "core/candidate.hpp"
#include "util/rng.hpp"

namespace nonmask {

/// A random "copy-tree" design: variables v0..v{k-1}; for each i > 0 a
/// constraint v_i == f_i(v_{p(i)}) with p(i) < i (tree) or sometimes
/// p(i) != i arbitrary (cyclic variant), where f_i is a random function
/// encoded as a permutation-ish affine map on the domain. The convergence
/// action is ¬c -> v_i := f_i(v_{p(i)}).
struct FuzzCase {
  Design design;
  bool tree_shaped;  ///< dependencies point strictly downward
};

inline FuzzCase make_fuzz_case(std::uint64_t seed) {
  Rng rng(seed);
  const int k = 3 + static_cast<int>(rng.below(3));        // 3..5 variables
  const Value hi = 1 + static_cast<Value>(rng.below(3));   // domains 2..4
  const bool tree_shaped = rng.chance(0.6);
  const bool add_vandal = rng.chance(0.4);

  ProgramBuilder b("fuzz-" + std::to_string(seed));
  std::vector<VarId> v;
  for (int i = 0; i < k; ++i) {
    v.push_back(b.var("v" + std::to_string(i), 0, hi));
  }

  Invariant inv;
  for (int i = 1; i < k; ++i) {
    int p;
    if (tree_shaped) {
      p = static_cast<int>(rng.below(static_cast<std::uint64_t>(i)));
    } else {
      do {
        p = static_cast<int>(rng.below(static_cast<std::uint64_t>(k)));
      } while (p == i);
    }
    const Value a = 1 + static_cast<Value>(rng.below(static_cast<std::uint64_t>(hi)));
    const Value c0 = static_cast<Value>(rng.below(static_cast<std::uint64_t>(hi) + 1));
    const Value mod = hi + 1;
    auto f = [a, c0, mod](Value x) { return (a * x + c0) % mod; };

    const VarId vi = v[static_cast<std::size_t>(i)];
    const VarId vp = v[static_cast<std::size_t>(p)];
    auto ok = [vi, vp, f](const State& s) {
      return s.get(vi) == f(s.get(vp));
    };
    const auto cid = inv.add(Constraint{
        "v" + std::to_string(i) + "=f(v" + std::to_string(p) + ")", ok,
        {vi, vp}});
    b.convergence(
        "fix" + std::to_string(i),
        [ok](const State& s) { return !ok(s); },
        [vi, vp, f](State& s) { s.set(vi, f(s.get(vp))); }, {vi, vp}, {vi},
        static_cast<int>(cid));
  }

  if (add_vandal) {
    // A closure action that rewrites a random variable when some guard
    // holds; it may or may not preserve the constraints — the validators
    // must sort that out.
    const int t = static_cast<int>(rng.below(static_cast<std::uint64_t>(k)));
    const VarId vt = v[static_cast<std::size_t>(t)];
    const Value val = static_cast<Value>(rng.below(static_cast<std::uint64_t>(hi) + 1));
    const Value trigger = static_cast<Value>(rng.below(static_cast<std::uint64_t>(hi) + 1));
    const VarId watch = v[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(k)))];
    b.closure(
        "vandal",
        [watch, trigger, vt, val](const State& s) {
          return s.get(watch) == trigger && s.get(vt) != val;
        },
        [vt, val](State& s) { s.set(vt, val); }, {watch, vt}, {vt});
  }

  FuzzCase fc;
  fc.design.name = b.peek().name();
  fc.design.program = b.build();
  fc.design.invariant = std::move(inv);
  fc.design.fault_span = true_predicate();
  fc.tree_shaped = tree_shaped;
  return fc;
}

}  // namespace nonmask
