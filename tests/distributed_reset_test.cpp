// The distributed-reset application (Section 5.1's origin, [12]): the
// diffusing wave doubles as a reset wave; the application layer rides on
// the stabilization machinery without changing the convergence argument.
#include <gtest/gtest.h>

#include "cgraph/theorems.hpp"
#include "checker/closure_check.hpp"
#include "checker/convergence_check.hpp"
#include "checker/fault_span.hpp"
#include "checker/state_space.hpp"
#include "engine/simulator.hpp"
#include "protocols/distributed_reset.hpp"
#include "sched/daemons.hpp"

namespace nonmask {
namespace {

// The application layer makes fairness load-bearing: an unfair daemon can
// spin `work` actions on green nodes forever and never repair the tree, so
// exact unfair convergence FAILS — while the weakly-fair analysis proves
// convergence (the violated constraint's correction stays enabled
// throughout any spin and escapes it). This is the precise boundary of the
// paper's Section 8 remark that fairness is "often unnecessary": it stops
// being unnecessary once closure work rides on the wave.
TEST(DistributedResetTest, UnfairFailsButWeaklyFairStabilizes) {
  for (const auto& tree :
       {RootedTree::chain(2), RootedTree::chain(3), RootedTree::star(3)}) {
    for (const bool combined : {false, true}) {
      const auto dr = make_distributed_reset(tree, 2, combined);
      StateSpace space(dr.design.program);
      EXPECT_TRUE(check_closed(space, dr.design.S()).closed)
          << tree.size() << " combined=" << combined;
      const auto unfair =
          check_convergence(space, dr.design.S(), dr.design.T());
      EXPECT_EQ(unfair.verdict, ConvergenceVerdict::kViolated)
          << tree.size() << " combined=" << combined;
      EXPECT_TRUE(unfair.cycle.has_value());
      const auto fair = check_convergence_weakly_fair(
          space, dr.design.S(), dr.design.T());
      EXPECT_EQ(fair.verdict, ConvergenceVerdict::kConverges)
          << tree.size() << " combined=" << combined;
    }
  }
}

TEST(DistributedResetTest, Theorem1ValidatesSeparatedForm) {
  const auto dr =
      make_distributed_reset(RootedTree::balanced(4, 2), 2, false);
  StateSpace space(dr.design.program);
  const auto cg = infer_constraint_graph(dr.design.program);
  ASSERT_TRUE(cg.ok) << cg.error;
  const auto report = validate_theorem1(dr.design, cg.graph, space);
  EXPECT_TRUE(report.applies) << format_report(report);
  EXPECT_EQ(report.shape, GraphShape::kOutTree);
}

// The reset guarantee: during each wave the root initiates in S, every
// node passes through the reset state (red with app == 0) before the wave
// completes at the root.
TEST(DistributedResetTest, WaveResetsEveryNode) {
  const auto tree = RootedTree::balanced(7, 2);
  const auto dr = make_distributed_reset(tree, 4, true);
  const Design& d = dr.design;
  RandomDaemon daemon(3);
  Simulator sim(d.program, daemon);

  State s = d.program.initial_state();
  ASSERT_TRUE(d.S()(s));
  const VarId root_c = dr.color[static_cast<std::size_t>(tree.root())];

  RunOptions opts;
  opts.max_steps = 1;
  int waves_checked = 0;
  std::vector<bool> reset_seen(7, false);
  bool in_wave = false;
  for (int step = 0; step < 4000 && waves_checked < 5; ++step) {
    s = sim.run(s, opts).final_state;
    const bool root_red = s.get(root_c) == kRed;
    if (root_red && !in_wave) {
      in_wave = true;
      std::fill(reset_seen.begin(), reset_seen.end(), false);
    }
    if (in_wave) {
      for (int j = 0; j < 7; ++j) {
        if (dr.reset_at(s, j)) reset_seen[static_cast<std::size_t>(j)] = true;
      }
      if (!root_red) {  // wave completed
        in_wave = false;
        ++waves_checked;
        for (int j = 0; j < 7; ++j) {
          EXPECT_TRUE(reset_seen[static_cast<std::size_t>(j)])
              << "wave " << waves_checked << " missed node " << j;
        }
      }
    }
  }
  EXPECT_GE(waves_checked, 5);
}

TEST(DistributedResetTest, WorkOnlyWhileGreen) {
  const auto dr = make_distributed_reset(RootedTree::chain(3), 3, true);
  StateSpace space(dr.design.program);
  State s(dr.design.program.num_variables());
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    space.decode_into(code, s);
    for (int j = 0; j < 3; ++j) {
      const auto& work = dr.design.program.action(static_cast<std::size_t>(j));
      ASSERT_EQ(work.name().rfind("work@", 0), 0u);
      if (work.enabled(s)) {
        EXPECT_EQ(s.get(dr.color[static_cast<std::size_t>(j)]), kGreen);
      }
    }
  }
}

// Fault-span discovery: under color/session corruption (app untouched),
// the reachable fault-span is the full color/session product — a concrete
// use of compute_fault_span.
TEST(DistributedResetTest, InducedFaultSpanIsEverythingUnderFullCorruption) {
  const auto tree = RootedTree::chain(3);
  auto dr = make_distributed_reset(tree, 2, true);
  // Add one fault action that arbitrarily advances c.1 (cyclically).
  const VarId c1 = dr.color[1];
  dr.design.program.add_action(Action(
      "corrupt-c1", ActionKind::kFault, true_predicate(),
      [c1](State& s) { s.set(c1, 1 - s.get(c1)); }, {c1}, {c1}, 1));
  const VarId sn1 = dr.session[1];
  dr.design.program.add_action(Action(
      "corrupt-sn1", ActionKind::kFault, true_predicate(),
      [sn1](State& s) { s.set(sn1, 1 - s.get(sn1)); }, {sn1}, {sn1}, 1));

  StateSpace space(dr.design.program);
  const auto span = compute_fault_span(
      space, dr.design.S(),
      {dr.design.program.num_actions() - 2,
       dr.design.program.num_actions() - 1});
  // The span is a strict superset of S and closed by construction; with
  // only node-1 faults it must still cover every color/session combination
  // of node 1 (app values reachable via work).
  EXPECT_GT(span.size(), 0u);
  const auto S = dr.design.S();
  State s(dr.design.program.num_variables());
  std::uint64_t s_count = 0;
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    space.decode_into(code, s);
    if (S(s)) {
      ++s_count;
      EXPECT_TRUE(span.contains_code(code));  // S inside the span
    }
  }
  EXPECT_GT(span.size(), s_count);

  // Convergence from the *induced* span back to S (weakly fair — the work
  // actions make unfair convergence impossible, see above).
  const auto report =
      check_convergence_weakly_fair(space, S, span.as_predicate());
  EXPECT_EQ(report.verdict, ConvergenceVerdict::kConverges);
}

TEST(DistributedResetTest, RecoversAtScale) {
  Rng tree_rng(5);
  const auto tree = RootedTree::random(40, tree_rng);
  const auto dr = make_distributed_reset(tree, 8, true);
  RandomDaemon daemon(7);
  Rng rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    RunOptions opts;
    opts.max_steps = 300'000;
    const auto r = converge(
        dr.design, dr.design.program.random_state(rng), daemon, opts);
    EXPECT_TRUE(r.converged) << trial;
  }
}

TEST(DistributedResetTest, ConstructorValidation) {
  EXPECT_THROW(make_distributed_reset(RootedTree::chain(2), 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace nonmask
