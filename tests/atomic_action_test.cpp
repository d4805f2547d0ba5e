// The atomic-action protocol: the library's nontrivial-fault-span showcase
// (S ⊊ T ⊊ true). T-tolerant for S, but NOT true-tolerant — making the
// paper's relative definition of tolerance concrete.
#include <gtest/gtest.h>

#include "cgraph/theorems.hpp"
#include "checker/closure_check.hpp"
#include "checker/convergence_check.hpp"
#include "checker/state_space.hpp"
#include "engine/simulator.hpp"
#include "faults/injector.hpp"
#include "protocols/atomic_action.hpp"
#include "sched/daemons.hpp"

namespace nonmask {
namespace {

TEST(AtomicActionTest, TolerantForSWithinT) {
  for (const int participants : {1, 2, 3}) {
    const auto aa = make_atomic_action(participants);
    StateSpace space(aa.design.program);
    const auto report = verify_tolerance(space, aa.design);
    EXPECT_TRUE(report.closure_S.closed) << participants;
    EXPECT_TRUE(report.closure_T.closed) << participants;
    EXPECT_EQ(report.convergence.verdict, ConvergenceVerdict::kConverges)
        << participants;
    EXPECT_TRUE(report.tolerant());
  }
}

TEST(AtomicActionTest, NotTrueTolerant) {
  // Start states with f.j = 2 (outside T) deadlock outside S.
  const auto aa = make_atomic_action(2);
  StateSpace space(aa.design.program);
  const auto report =
      check_convergence(space, aa.design.S(), true_predicate());
  EXPECT_EQ(report.verdict, ConvergenceVerdict::kViolated);
  EXPECT_TRUE(report.deadlock.has_value());
}

TEST(AtomicActionTest, SIsStrictlyInsideT) {
  const auto aa = make_atomic_action(2);
  StateSpace space(aa.design.program);
  const auto S = aa.design.S();
  const auto T = aa.design.T();
  State s(aa.design.program.num_variables());
  std::uint64_t s_count = 0, t_count = 0, all = space.size();
  for (std::uint64_t code = 0; code < all; ++code) {
    space.decode_into(code, s);
    const bool in_S = S(s);
    const bool in_T = T(s);
    if (in_S) {
      ++s_count;
      EXPECT_TRUE(in_T);  // S => T
    }
    if (in_T) ++t_count;
  }
  EXPECT_LT(s_count, t_count);
  EXPECT_LT(t_count, all);
}

TEST(AtomicActionTest, FaultActionsPreserveT) {
  // The fault-span must be closed under the tolerated fault class too
  // (Section 3: the fault-span is closed under program AND fault actions).
  const auto aa = make_atomic_action(3);
  StateSpace space(aa.design.program);
  const auto report =
      check_closed(space, aa.design.T(), aa.fault_actions);
  EXPECT_TRUE(report.closed);
}

TEST(AtomicActionTest, Theorem1ValidatesTheDesign) {
  const auto aa = make_atomic_action(3);
  StateSpace space(aa.design.program);
  const auto report = validate_design(aa.design, space);
  EXPECT_TRUE(report.applies) << format_report(report);
  EXPECT_NE(report.theorem.find("Theorem 1"), std::string::npos);
  EXPECT_EQ(report.shape, GraphShape::kOutTree);  // star rooted at {d}
}

TEST(AtomicActionTest, RepairsAfterToleratedFaults) {
  const auto aa = make_atomic_action(4);
  // Generic domain corruption could produce the un-tolerated value 2, so
  // drive the run with the protocol's own flip fault actions.
  RandomDaemon d(19);
  Simulator sim(aa.design.program, d);
  Rng fault_rng(91);
  std::size_t flips = 0;
  RunOptions opts;
  opts.max_steps = 50'000;
  opts.perturb = [&](std::size_t step, State& s) {
    if (step % 100 == 0 && step > 0 && flips < 10) {
      const auto& fa = aa.design.program.action(
          aa.fault_actions[fault_rng.below(aa.fault_actions.size())]);
      fa.execute(s);
      ++flips;
    }
  };
  opts.stop_when = [S = aa.design.S(), &flips](const State& s) {
    return flips == 10 && S(s);
  };
  const auto r = sim.run(aa.design.program.initial_state(), opts);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(flips, 10u);
}

TEST(AtomicActionTest, WorkProceedsOnlyInS) {
  const auto aa = make_atomic_action(2);
  StateSpace space(aa.design.program);
  State s(aa.design.program.num_variables());
  const auto S = aa.design.S();
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    space.decode_into(code, s);
    for (const auto& a : aa.design.program.actions()) {
      if (a.kind() == ActionKind::kClosure && a.enabled(s)) {
        EXPECT_TRUE(S(s)) << "closure enabled outside S at "
                          << aa.design.program.format_state(s);
      }
    }
  }
}

TEST(AtomicActionTest, ConstructorValidation) {
  EXPECT_THROW(make_atomic_action(0), std::invalid_argument);
  EXPECT_THROW(make_atomic_action(2, 1), std::invalid_argument);
}

}  // namespace
}  // namespace nonmask
