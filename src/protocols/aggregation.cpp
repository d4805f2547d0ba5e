#include "protocols/aggregation.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/builder.hpp"

namespace nonmask {

Value AggregationDesign::expected(const RootedTree& tree, const State& s,
                                  int j) const {
  Value best = s.get(input[static_cast<std::size_t>(j)]);
  for (int k : tree.children(j)) {
    best = std::max(best, expected(tree, s, k));
  }
  return best;
}

AggregationDesign make_aggregation(const RootedTree& tree, Value max_value) {
  if (max_value < 1) throw std::invalid_argument("aggregation: max_value < 1");
  const int n = tree.size();
  ProgramBuilder b("tree-aggregation");

  AggregationDesign ad;
  for (int j = 0; j < n; ++j) {
    ad.input.push_back(b.var("in." + std::to_string(j), 0, max_value, j));
    ad.aggregate.push_back(
        b.var("agg." + std::to_string(j), 0, max_value, j));
  }

  Invariant inv;
  for (int j = 0; j < n; ++j) {
    const VarId in = ad.input[static_cast<std::size_t>(j)];
    const VarId agg = ad.aggregate[static_cast<std::size_t>(j)];
    std::vector<VarId> child_aggs;
    for (int k : tree.children(j)) {
      child_aggs.push_back(ad.aggregate[static_cast<std::size_t>(k)]);
    }
    // rhs = max(in.j, agg.k for children k).
    auto rhs = [in, child_aggs](const State& s) {
      Value best = s.get(in);
      for (VarId c : child_aggs) best = std::max(best, s.get(c));
      return best;
    };
    auto ok = [agg, rhs](const State& s) { return s.get(agg) == rhs(s); };
    // The equation's variables (all distinct), sorted by id: the
    // constraint's support and the action's read set.
    std::vector<VarId> reads = child_aggs;
    reads.push_back(in);
    reads.push_back(agg);
    std::sort(reads.begin(), reads.end());
    const auto cid = inv.add(Constraint{
        "agg." + std::to_string(j) + " = max(subtree)", ok, reads});
    b.convergence(
        "recompute@" + std::to_string(j),
        [ok](const State& s) { return !ok(s); },
        [agg, rhs](State& s) { s.set(agg, rhs(s)); }, reads, {agg},
        static_cast<int>(cid), j);
  }

  ad.design.name = b.peek().name();
  ad.design.program = b.build();
  ad.design.invariant = std::move(inv);
  ad.design.fault_span = true_predicate();
  ad.design.stabilizing = true;
  return ad;
}

}  // namespace nonmask
