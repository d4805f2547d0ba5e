// Unit tests for the explicit-state checker: state spaces, closure checks,
// exact (unfair) and weakly-fair convergence checks, preserves obligations,
// and variant extraction.
#include <gtest/gtest.h>

#include "checker/closure_check.hpp"
#include "checker/convergence_check.hpp"
#include "checker/preserves.hpp"
#include "checker/state_space.hpp"
#include "checker/variant.hpp"
#include "core/builder.hpp"
#include "core/candidate.hpp"

namespace nonmask {
namespace {

TEST(StateSpaceTest, EncodeDecodeRoundtrip) {
  ProgramBuilder b("p");
  b.var("a", -1, 2);  // 4 values
  b.var("b", 0, 2);   // 3 values
  b.var("c", 5, 6);   // 2 values
  Program p = b.build();
  StateSpace space(p);
  EXPECT_EQ(space.size(), 24u);
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    const State s = space.decode(code);
    EXPECT_TRUE(p.in_domain(s));
    EXPECT_EQ(space.encode(s), code);
  }
}

TEST(StateSpaceTest, BudgetEnforced) {
  ProgramBuilder b("p");
  b.var("a", 0, 999);
  b.var("b", 0, 999);
  Program p = b.build();
  EXPECT_THROW(StateSpace(p, 1000), StateSpaceTooLarge);
  EXPECT_TRUE(fits_in_budget(p, 2'000'000));
  EXPECT_FALSE(fits_in_budget(p, 1000));
}

/// x counts down to 0; predicate x <= k is closed, x >= k is not.
Program countdown() {
  ProgramBuilder b("countdown");
  const VarId x = b.var("x", 0, 7);
  b.closure(
      "dec", [x](const State& s) { return s.get(x) > 0; },
      [x](State& s) { s.set(x, s.get(x) - 1); }, {x}, {x});
  return b.build();
}

TEST(ClosureTest, ClosedPredicatePasses) {
  Program p = countdown();
  StateSpace space(p);
  const VarId x = p.find_variable("x");
  const auto report =
      check_closed(space, [x](const State& s) { return s.get(x) <= 3; });
  EXPECT_TRUE(report.closed);
  EXPECT_GT(report.states_checked, 0u);
}

TEST(ClosureTest, OpenPredicateFailsWithCounterexample) {
  Program p = countdown();
  StateSpace space(p);
  const VarId x = p.find_variable("x");
  const auto report =
      check_closed(space, [x](const State& s) { return s.get(x) >= 3; });
  EXPECT_FALSE(report.closed);
  ASSERT_TRUE(report.violation.has_value());
  EXPECT_EQ(report.violation->state.get(x), 3);
  EXPECT_EQ(report.violation->successor.get(x), 2);
}

TEST(ClosureTest, RestrictedActionSubset) {
  ProgramBuilder b("two");
  const VarId x = b.var("x", 0, 3);
  b.closure(
      "dec", [x](const State& s) { return s.get(x) > 0; },
      [x](State& s) { s.set(x, s.get(x) - 1); }, {x}, {x});
  b.closure(
      "inc", [x](const State& s) { return s.get(x) < 3; },
      [x](State& s) { s.set(x, s.get(x) + 1); }, {x}, {x});
  Program p = b.build();
  StateSpace space(p);
  auto le1 = [x](const State& s) { return s.get(x) <= 1; };
  EXPECT_TRUE(check_closed(space, le1, {0}).closed);   // dec only
  EXPECT_FALSE(check_closed(space, le1, {1}).closed);  // inc breaks it
}

TEST(ConvergenceTest, CountdownConvergesWithExactWorstCase) {
  Program p = countdown();
  StateSpace space(p);
  const VarId x = p.find_variable("x");
  const auto report = check_convergence(
      space, [x](const State& s) { return s.get(x) == 0; }, true_predicate());
  EXPECT_EQ(report.verdict, ConvergenceVerdict::kConverges);
  EXPECT_EQ(report.max_steps_to_S, 7u);
  EXPECT_EQ(report.states_in_T, 8u);
  EXPECT_EQ(report.states_in_S, 1u);
}

/// Two actions that oscillate x between 0 and 1 forever.
Program oscillator() {
  ProgramBuilder b("oscillator");
  const VarId x = b.var("x", 0, 1);
  b.closure(
      "up", [x](const State& s) { return s.get(x) == 0; },
      [x](State& s) { s.set(x, 1); }, {x}, {x});
  b.closure(
      "down", [x](const State& s) { return s.get(x) == 1; },
      [x](State& s) { s.set(x, 0); }, {x}, {x});
  return b.build();
}

TEST(ConvergenceTest, OscillatorViolatesWithCycle) {
  Program p = oscillator();
  StateSpace space(p);
  const auto report =
      check_convergence(space, false_predicate(), true_predicate());
  EXPECT_EQ(report.verdict, ConvergenceVerdict::kViolated);
  ASSERT_TRUE(report.cycle.has_value());
  EXPECT_GE(report.cycle->size(), 2u);
}

TEST(ConvergenceTest, DeadlockOutsideSViolates) {
  ProgramBuilder b("stuck");
  const VarId x = b.var("x", 0, 2);
  // Only 2 -> 1; from 1 nothing is enabled, and S = (x == 0).
  b.closure(
      "step", [x](const State& s) { return s.get(x) == 2; },
      [x](State& s) { s.set(x, 1); }, {x}, {x});
  Program p = b.build();
  StateSpace space(p);
  const auto report = check_convergence(
      space, [x](const State& s) { return s.get(x) == 0; }, true_predicate());
  EXPECT_EQ(report.verdict, ConvergenceVerdict::kViolated);
  EXPECT_TRUE(report.deadlock.has_value());
}

TEST(ConvergenceTest, FaultSpanRestrictsStartStates) {
  ProgramBuilder b("gated");
  const VarId x = b.var("x", 0, 3);
  // 3 is a trap (no exit, not in S); T excludes it.
  b.closure(
      "dec",
      [x](const State& s) { return s.get(x) > 0 && s.get(x) < 3; },
      [x](State& s) { s.set(x, s.get(x) - 1); }, {x}, {x});
  Program p = b.build();
  StateSpace space(p);
  auto S = [x](const State& s) { return s.get(x) == 0; };
  auto T = [x](const State& s) { return s.get(x) <= 2; };
  EXPECT_EQ(check_convergence(space, S, T).verdict,
            ConvergenceVerdict::kConverges);
  EXPECT_EQ(check_convergence(space, S, true_predicate()).verdict,
            ConvergenceVerdict::kViolated);
}

/// Spin + escape: an unfair daemon can spin on `spin` forever, but the
/// always-enabled `exit` action leaves the loop — weakly fair computations
/// must converge.
Program spin_with_escape() {
  ProgramBuilder b("spin");
  const VarId x = b.var("x", 0, 1);  // 0 = spinning region, 1 = S
  const VarId y = b.var("y", 0, 1);  // toggled by the spin action
  b.closure(
      "spin", [x](const State& s) { return s.get(x) == 0; },
      [y](State& s) { s.set(y, 1 - s.get(y)); }, {x, y}, {y});
  b.closure(
      "exit", [x](const State& s) { return s.get(x) == 0; },
      [x](State& s) { s.set(x, 1); }, {x}, {x});
  return b.build();
}

TEST(ConvergenceTest, UnfairFailsButWeaklyFairConverges) {
  Program p = spin_with_escape();
  StateSpace space(p);
  const VarId x = p.find_variable("x");
  auto S = [x](const State& s) { return s.get(x) == 1; };
  EXPECT_EQ(check_convergence(space, S, true_predicate()).verdict,
            ConvergenceVerdict::kViolated);
  EXPECT_EQ(check_convergence_weakly_fair(space, S, true_predicate()).verdict,
            ConvergenceVerdict::kConverges);
}

TEST(ConvergenceTest, WeaklyFairDetectsClosedScc) {
  Program p = oscillator();
  StateSpace space(p);
  const auto report =
      check_convergence_weakly_fair(space, false_predicate(), true_predicate());
  EXPECT_EQ(report.verdict, ConvergenceVerdict::kViolated);
  EXPECT_TRUE(report.cycle.has_value());
}

TEST(ConvergenceTest, WeaklyFairDetectsDeadlock) {
  ProgramBuilder b("stuck");
  const VarId x = b.var("x", 0, 1);
  Program p = b.build();  // no actions at all
  StateSpace space(p);
  const auto report = check_convergence_weakly_fair(
      space, [x](const State& s) { return s.get(x) == 0; }, true_predicate());
  EXPECT_EQ(report.verdict, ConvergenceVerdict::kViolated);
  EXPECT_TRUE(report.deadlock.has_value());
}

TEST(PreservesTest, ExhaustivePassAndFail) {
  Program p = countdown();
  StateSpace space(p);
  const VarId x = p.find_variable("x");

  auto le3 = [x](const State& s) { return s.get(x) <= 3; };
  auto ge3 = [x](const State& s) { return s.get(x) >= 3; };
  const auto pass = check_preserves(space, p.action(0), le3);
  EXPECT_TRUE(pass.preserves);
  EXPECT_FALSE(pass.counterexample.has_value());
  const auto fail = check_preserves(space, p.action(0), ge3);
  EXPECT_FALSE(fail.preserves);
  ASSERT_TRUE(fail.counterexample.has_value());
  EXPECT_EQ(fail.counterexample->get(x), 3);
}

TEST(PreservesTest, ContextHypothesisRestricts) {
  Program p = countdown();
  StateSpace space(p);
  const VarId x = p.find_variable("x");
  // "x >= 3" is preserved under the hypothesis x >= 5 (5 -> 4 >= 3).
  const auto report = check_preserves(
      space, p.action(0), [x](const State& s) { return s.get(x) >= 3; },
      [x](const State& s) { return s.get(x) >= 5; });
  EXPECT_TRUE(report.preserves);
}

TEST(VariantTest, CountdownVariantIsDistance) {
  Program p = countdown();
  StateSpace space(p);
  const VarId x = p.find_variable("x");
  const auto variant =
      compute_variant(space, [x](const State& s) { return s.get(x) == 0; });
  ASSERT_TRUE(variant.has_value());
  EXPECT_EQ(variant->max_value(), 7u);
  State s(1);
  for (Value v = 0; v <= 7; ++v) {
    s.set(x, v);
    EXPECT_EQ((*variant)(s), static_cast<std::uint32_t>(v));
  }
}

TEST(VariantTest, NoVariantForOscillator) {
  Program p = oscillator();
  StateSpace space(p);
  EXPECT_FALSE(compute_variant(space, false_predicate()).has_value());
}

TEST(ToleranceTest, VerifyToleranceEndToEnd) {
  ProgramBuilder b("fixit");
  const VarId x = b.var("x", 0, 3);
  b.convergence(
      "fix", [x](const State& s) { return s.get(x) != 0; },
      [x](State& s) { s.set(x, s.get(x) - 1); }, {x}, {x}, 0);
  Design d;
  d.program = b.build();
  d.invariant.add(
      Constraint{"x==0", [x](const State& s) { return s.get(x) == 0; }, {x}});
  d.fault_span = true_predicate();
  StateSpace space(d.program);
  const auto report = verify_tolerance(space, d);
  EXPECT_TRUE(report.closure_S.closed);
  EXPECT_TRUE(report.closure_T.closed);
  EXPECT_EQ(report.convergence.verdict, ConvergenceVerdict::kConverges);
  EXPECT_TRUE(report.tolerant());
}

}  // namespace
}  // namespace nonmask
