// Section 7's refined analyses: convergence stairs (Gouda–Multari),
// restricted constraint graphs, and automatic Theorem-3 layering.
#include <gtest/gtest.h>

#include "cgraph/refine.hpp"
#include "checker/stair.hpp"
#include "checker/state_space.hpp"
#include "core/builder.hpp"
#include "protocols/coloring.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/leader_election.hpp"
#include "protocols/running_example.hpp"
#include "protocols/token_ring.hpp"

namespace nonmask {
namespace {

// The token ring's own two-stage structure: stage 1 establishes the first
// conjunct (non-increasing), stage 2 reaches S. This is precisely the
// "convergence stair of height two" the paper cites.
TEST(StairTest, TokenRingStairOfHeightTwo) {
  const auto tr = make_token_ring_bounded(4, 3, true);
  const Design& d = tr.design;
  StateSpace space(d.program);

  auto non_increasing = [x = tr.x](const State& s) {
    for (std::size_t j = 0; j + 1 < x.size(); ++j) {
      if (s.get(x[j]) < s.get(x[j + 1])) return false;
    }
    return true;
  };
  const auto report = check_stair(
      space, d.T(),
      {StatePredicate{"non-increasing", non_increasing},
       StatePredicate{"S", d.S()}});
  EXPECT_TRUE(report.valid) << report.failure;
  ASSERT_EQ(report.steps.size(), 2u);
  EXPECT_TRUE(report.steps[0].closed);
  EXPECT_GT(report.total_worst_case, 0u);
}

TEST(StairTest, RejectsNonClosedStep) {
  const auto tr = make_token_ring_bounded(3, 3, true);
  StateSpace space(tr.design.program);
  // "x.0 == 0" is not closed (the root increments).
  auto x0_zero = [x0 = tr.x[0]](const State& s) { return s.get(x0) == 0; };
  const auto report = check_stair(
      space, tr.design.T(),
      {StatePredicate{"x0=0", p_and(x0_zero, tr.design.S())}});
  EXPECT_FALSE(report.valid);
  EXPECT_NE(report.failure.find("not closed"), std::string::npos);
}

TEST(StairTest, RejectsBrokenSubsetChain) {
  const auto tr = make_token_ring_bounded(3, 3, true);
  StateSpace space(tr.design.program);
  // Second step not inside the first.
  auto a = [x0 = tr.x[0]](const State& s) { return s.get(x0) == 0; };
  auto b = [x0 = tr.x[0]](const State& s) { return s.get(x0) == 1; };
  const auto report = check_stair(space, tr.design.T(),
                                  {StatePredicate{"a", a},
                                   StatePredicate{"b", b}});
  EXPECT_FALSE(report.valid);
  EXPECT_NE(report.failure.find("not inside"), std::string::npos);
}

TEST(StairTest, EmptyStairRejected) {
  const auto tr = make_token_ring_bounded(3, 3, true);
  StateSpace space(tr.design.program);
  EXPECT_FALSE(check_stair(space, tr.design.T(), {}).valid);
}

TEST(StairTest, SingleStepStairEqualsPlainConvergence) {
  const Design d = make_running_example(RunningExampleVariant::kWriteYZ);
  StateSpace space(d.program);
  const auto report =
      check_stair(space, d.T(), {StatePredicate{"S", d.S()}});
  EXPECT_TRUE(report.valid) << report.failure;
  EXPECT_EQ(report.total_worst_case, 2u);
}

// Restriction (Section 7, first possibility): once the diffusing
// computation's constraints hold on a subtree prefix, those edges drop out
// of the restricted graph.
TEST(RestrictTest, SatisfiedConstraintsDropOut) {
  const auto dd = make_diffusing(RootedTree::chain(3), false);
  const Design& d = dd.design;
  StateSpace space(d.program);
  const auto cg = infer_constraint_graph(d.program);
  ASSERT_TRUE(cg.ok);
  ASSERT_EQ(cg.graph.graph.num_edges(), 2);

  // Restrict to S: every constraint holds, so every edge drops.
  const auto restricted_s =
      restrict_constraint_graph(d, cg.graph, d.S(), space);
  EXPECT_EQ(restricted_s.graph.graph.num_edges(), 0);
  EXPECT_EQ(restricted_s.dropped.size(), 2u);

  // Restrict to R.1 only: the R.1 edge drops, R.2's survives.
  const auto restricted_r1 = restrict_constraint_graph(
      d, cg.graph, d.invariant.at(0).fn, space);
  EXPECT_EQ(restricted_r1.graph.graph.num_edges(), 1);
  EXPECT_EQ(restricted_r1.dropped.size(), 1u);

  // Restrict to true: nothing drops.
  const auto restricted_true =
      restrict_constraint_graph(d, cg.graph, true_predicate(), space);
  EXPECT_EQ(restricted_true.graph.graph.num_edges(), 2);
}

TEST(SuggestLayersTest, ColoringLayersValidate) {
  const auto g = UndirectedGraph::grid(2, 2);
  const auto cd = make_coloring(g);
  StateSpace space(cd.design.program);
  const auto layers = suggest_layers(cd.design, space);
  ASSERT_TRUE(layers.has_value());
  const auto report = validate_theorem3(cd.design, *layers, space);
  EXPECT_TRUE(report.applies) << format_report(report);
}

TEST(SuggestLayersTest, LeaderElectionLayersValidate) {
  const auto le = make_leader_election(4);
  StateSpace space(le.design.program);
  const auto layers = suggest_layers(le.design, space);
  ASSERT_TRUE(layers.has_value());
  const auto report = validate_theorem3(le.design, *layers, space);
  EXPECT_TRUE(report.applies) << format_report(report);
}

TEST(SuggestLayersTest, MutualBreakersAcrossNodesRejected) {
  // kWriteXBoth: both convergence actions write {x} — same target node —
  // so suggest_layers does not reject on that ground; it may propose a
  // single layer, which Theorem 3 then rejects for want of a linear order.
  const Design d = make_running_example(RunningExampleVariant::kWriteXBoth);
  StateSpace space(d.program);
  const auto layers = suggest_layers(d, space);
  if (layers.has_value()) {
    const auto report = validate_theorem3(d, *layers, space);
    EXPECT_FALSE(report.applies);
  }
}

TEST(SuggestLayersTest, RespectsBreaksOrder) {
  // kDecreaseX: fix-leq breaks fix-neq's constraint, so fix-leq must land
  // in a layer no higher than fix-neq's.
  const Design d = make_running_example(RunningExampleVariant::kDecreaseX);
  StateSpace space(d.program);
  const auto layers = suggest_layers(d, space);
  ASSERT_TRUE(layers.has_value());
  int layer_of_leq = -1, layer_of_neq = -1;
  for (std::size_t l = 0; l < layers->size(); ++l) {
    for (std::size_t idx : (*layers)[l]) {
      const auto& name = d.program.action(idx).name();
      if (name.rfind("fix-leq", 0) == 0) layer_of_leq = static_cast<int>(l);
      if (name.rfind("fix-neq", 0) == 0) layer_of_neq = static_cast<int>(l);
    }
  }
  ASSERT_GE(layer_of_leq, 0);
  ASSERT_GE(layer_of_neq, 0);
  EXPECT_LE(layer_of_leq, layer_of_neq);
}

}  // namespace
}  // namespace nonmask
