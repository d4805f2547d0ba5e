// Fuzzed soundness of the theorem validators: across randomly generated
// designs — clean copy-tree designs, designs with random interfering
// closure actions, and designs with cyclic dependency structure — whenever
// a validator says a theorem APPLIES, the exact checker must confirm
// convergence. Clean out-tree designs must also always be accepted
// (completeness on the easy fragment).
#include <gtest/gtest.h>

#include <string>

#include "cgraph/theorems.hpp"
#include "checker/convergence_check.hpp"
#include "checker/state_space.hpp"
#include "fuzz_case.hpp"

namespace nonmask {
namespace {

class FuzzSoundnessTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSoundnessTest, ValidatorAcceptanceImpliesConvergence) {
  const auto fc = make_fuzz_case(GetParam());
  StateSpace space(fc.design.program);

  const auto report = validate_design(fc.design, space);
  const auto exact = check_convergence(space, fc.design.S(), fc.design.T());

  if (report.applies) {
    EXPECT_EQ(exact.verdict, ConvergenceVerdict::kConverges)
        << fc.design.name << "\n"
        << format_report(report);
  }
}

TEST_P(FuzzSoundnessTest, CleanTreeDesignsAreAccepted) {
  const auto fc = make_fuzz_case(GetParam());
  if (!fc.tree_shaped) return;
  // Strip any vandal closure action: the clean candidate must validate.
  Design clean;
  clean.name = fc.design.name + "-clean";
  clean.program = Program(clean.name);
  for (const auto& var : fc.design.program.variables()) {
    clean.program.add_variable(var);
  }
  for (const auto& a : fc.design.program.actions()) {
    if (a.kind() == ActionKind::kConvergence) clean.program.add_action(a);
  }
  clean.invariant = fc.design.invariant;
  clean.fault_span = true_predicate();

  StateSpace space(clean.program);
  const auto report = validate_design(clean, space);
  EXPECT_TRUE(report.applies) << clean.name << "\n" << format_report(report);
  EXPECT_EQ(check_convergence(space, clean.S(), clean.T()).verdict,
            ConvergenceVerdict::kConverges);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSoundnessTest,
                         ::testing::Range<std::uint64_t>(0, 60));

}  // namespace
}  // namespace nonmask
