// Stabilizing tree aggregation (extension protocol).
#include <gtest/gtest.h>

#include "cgraph/theorems.hpp"
#include "checker/closure_check.hpp"
#include "checker/convergence_check.hpp"
#include "checker/state_space.hpp"
#include "engine/simulator.hpp"
#include "protocols/aggregation.hpp"
#include "sched/daemons.hpp"

namespace nonmask {
namespace {

TEST(AggregationTest, StabilizesExhaustivelyOnSmallTrees) {
  for (const auto& tree :
       {RootedTree::chain(3), RootedTree::star(3),
        RootedTree::balanced(4, 2)}) {
    const auto ad = make_aggregation(tree, 2);
    StateSpace space(ad.design.program);
    EXPECT_TRUE(check_closed(space, ad.design.S()).closed);
    const auto report = check_convergence(space, ad.design.S(), ad.design.T());
    EXPECT_EQ(report.verdict, ConvergenceVerdict::kConverges)
        << tree.size() << " nodes";
  }
}

TEST(AggregationTest, FixpointIsSubtreeMaxima) {
  Rng tree_rng(3);
  const auto tree = RootedTree::random(10, tree_rng);
  const auto ad = make_aggregation(tree, 9);
  RandomDaemon d(5);
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const auto r =
        converge(ad.design, ad.design.program.random_state(rng), d);
    ASSERT_TRUE(r.converged);
    for (int j = 0; j < tree.size(); ++j) {
      EXPECT_EQ(r.final_state.get(ad.aggregate[static_cast<std::size_t>(j)]),
                ad.expected(tree, r.final_state, j))
          << "node " << j;
    }
  }
}

TEST(AggregationTest, RootAggregateIsGlobalMaximum) {
  Rng tree_rng(11);
  const auto tree = RootedTree::random(30, tree_rng);
  const auto ad = make_aggregation(tree, 99);
  RandomDaemon d(13);
  Rng rng(17);
  const auto r = converge(ad.design, ad.design.program.random_state(rng), d);
  ASSERT_TRUE(r.converged);
  Value global = 0;
  for (const VarId in : ad.input) {
    global = std::max(global, r.final_state.get(in));
  }
  EXPECT_EQ(
      r.final_state.get(ad.aggregate[static_cast<std::size_t>(tree.root())]),
      global);
}

TEST(AggregationTest, Theorem2AppliesOnChains) {
  const auto ad = make_aggregation(RootedTree::chain(4), 2);
  StateSpace space(ad.design.program);
  const auto report = validate_design(ad.design, space);
  EXPECT_TRUE(report.applies) << format_report(report);
}

TEST(AggregationTest, DerivedContractsHoldEverywhere) {
  // The factory declares its write sets by hand; check them at every state.
  const auto ad = make_aggregation(RootedTree::balanced(4, 2), 2);
  StateSpace space(ad.design.program);
  State s(ad.design.program.num_variables());
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    space.decode_into(code, s);
    EXPECT_EQ(ad.design.program.check_contracts(s), "");
  }
}

TEST(AggregationTest, UnfairDaemonConverges) {
  const auto ad = make_aggregation(RootedTree::balanced(15, 2), 7);
  AdversarialDaemon d(ad.design.invariant, 3);
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    RunOptions opts;
    opts.max_steps = 100'000;
    const auto r = converge(
        ad.design, ad.design.program.random_state(rng), d, opts);
    EXPECT_TRUE(r.converged);
  }
}

TEST(AggregationTest, ConstructorValidation) {
  EXPECT_THROW(make_aggregation(RootedTree::chain(2), 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace nonmask
