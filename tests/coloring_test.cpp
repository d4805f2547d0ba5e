// Extension protocol: stabilizing graph coloring (the clean Theorem 3
// showcase — per-id layers).
#include <gtest/gtest.h>

#include "cgraph/theorems.hpp"
#include "checker/closure_check.hpp"
#include "checker/convergence_check.hpp"
#include "checker/state_space.hpp"
#include "engine/simulator.hpp"
#include "protocols/coloring.hpp"
#include "sched/daemons.hpp"

namespace nonmask {
namespace {

TEST(ColoringTest, StabilizesExhaustivelyOnSmallGraphs) {
  for (const auto& g :
       {UndirectedGraph::path(4), UndirectedGraph::cycle(4),
        UndirectedGraph::complete(3), UndirectedGraph::grid(2, 2)}) {
    const auto cd = make_coloring(g);
    StateSpace space(cd.design.program);
    EXPECT_TRUE(check_closed(space, cd.design.S()).closed);
    const auto report = check_convergence(space, cd.design.S(), cd.design.T());
    EXPECT_EQ(report.verdict, ConvergenceVerdict::kConverges);
  }
}

TEST(ColoringTest, InvariantImpliesProperColoring) {
  const auto g = UndirectedGraph::cycle(5);
  const auto cd = make_coloring(g);
  StateSpace space(cd.design.program);
  const auto S = cd.design.S();
  State s(cd.design.program.num_variables());
  std::uint64_t s_count = 0;
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    space.decode_into(code, s);
    if (!S(s)) continue;
    ++s_count;
    EXPECT_TRUE(cd.proper(g, s));
  }
  EXPECT_GT(s_count, 0u);
}

TEST(ColoringTest, ConvergesOnLargeRandomGraphs) {
  Rng rng(47);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = UndirectedGraph::random_connected(80, 120, rng);
    const auto cd = make_coloring(g);
    RandomDaemon d(trial);
    Rng start_rng(trial + 100);
    RunOptions opts;
    opts.max_steps = 500'000;
    const auto r = converge(cd.design,
                            cd.design.program.random_state(start_rng), d,
                            opts);
    ASSERT_TRUE(r.converged);
    EXPECT_TRUE(cd.proper(g, r.final_state));
  }
}

TEST(ColoringTest, MovesBoundedByIdInduction) {
  // Under any central daemon, node j moves at most once after all lower
  // ids quiesce; total moves are bounded by n per full sweep — empirically,
  // far fewer than the step cap.
  const auto g = UndirectedGraph::complete(6);
  const auto cd = make_coloring(g);
  AdversarialDaemon d(cd.design.invariant, 61);
  Rng start_rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    RunOptions opts;
    opts.max_steps = 1000;
    const auto r = converge(
        cd.design, cd.design.program.random_state(start_rng), d, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.steps, 36u);  // n^2 is a generous bound for n = 6
  }
}

TEST(ColoringTest, Theorem3AppliesWithPerIdLayers) {
  const auto g = UndirectedGraph::grid(2, 2);
  const auto cd = make_coloring(g);
  StateSpace space(cd.design.program);
  const auto report = validate_theorem3(cd.design, cd.layers, space);
  EXPECT_TRUE(report.applies) << format_report(report);
}

TEST(ColoringTest, PaletteNeverExceedsMaxDegreePlusOne) {
  Rng rng(53);
  const auto g = UndirectedGraph::random_connected(30, 40, rng);
  const auto cd = make_coloring(g);
  RandomDaemon d(9);
  Rng start_rng(11);
  const auto r =
      converge(cd.design, cd.design.program.random_state(start_rng), d);
  ASSERT_TRUE(r.converged);
  for (const VarId c : cd.color) {
    EXPECT_LE(r.final_state.get(c), static_cast<Value>(g.max_degree()));
  }
}

}  // namespace
}  // namespace nonmask
