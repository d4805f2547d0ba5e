// E7: the theorem validators (Sections 5-7) accept exactly the paper's
// designs and reject the broken variants; verdicts agree with the exact
// checker on every accepted design.
#include <gtest/gtest.h>

#include "cgraph/theorems.hpp"
#include "checker/convergence_check.hpp"
#include "checker/state_space.hpp"
#include "protocols/coloring.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/leader_election.hpp"
#include "protocols/running_example.hpp"
#include "protocols/token_ring.hpp"

namespace nonmask {
namespace {

// --- Theorem 1 -------------------------------------------------------------

TEST(Theorem1Test, AcceptsPaperFigureExample) {
  const Design d = make_running_example(RunningExampleVariant::kWriteYZ);
  StateSpace space(d.program);
  const auto cg = infer_constraint_graph(d.program);
  ASSERT_TRUE(cg.ok);
  const auto report = validate_theorem1(d, cg.graph, space);
  EXPECT_TRUE(report.applies) << format_report(report);
  EXPECT_EQ(report.shape, GraphShape::kOutTree);
  EXPECT_FALSE(report.ranks.empty());
}

TEST(Theorem1Test, AcceptsSeparatedDiffusingDesign) {
  for (const auto& tree :
       {RootedTree::chain(4), RootedTree::star(4), RootedTree::balanced(5, 2)}) {
    const auto dd = make_diffusing(tree, /*combined=*/false);
    StateSpace space(dd.design.program);
    const auto cg = infer_constraint_graph(dd.design.program);
    ASSERT_TRUE(cg.ok);
    const auto report =
        validate_theorem1(dd.design, cg.graph, space);
    EXPECT_TRUE(report.applies) << format_report(report);
  }
}

TEST(Theorem1Test, RejectsCombinedDiffusingDesign) {
  // The combined propagate-or-correct action fires in states where its
  // constraint already holds — the Section 3 form obligation fails, which
  // is exactly why the paper validates before combining.
  const auto dd = make_diffusing(RootedTree::chain(3), /*combined=*/true);
  StateSpace space(dd.design.program);
  const auto cg = infer_constraint_graph(dd.design.program);
  ASSERT_TRUE(cg.ok);
  const auto report = validate_theorem1(dd.design, cg.graph, space);
  EXPECT_FALSE(report.applies);
  EXPECT_NE(report.failure.find("enabled only when"), std::string::npos)
      << format_report(report);
}

TEST(Theorem1Test, RejectsNonTreeShapes) {
  const Design d = make_running_example(RunningExampleVariant::kDecreaseX);
  StateSpace space(d.program);
  const auto cg = infer_constraint_graph(d.program);
  ASSERT_TRUE(cg.ok);
  const auto report = validate_theorem1(d, cg.graph, space);
  EXPECT_FALSE(report.applies);
  EXPECT_NE(report.failure.find("not an out-tree"), std::string::npos);
}

TEST(Theorem1Test, RejectsClosureActionBreakingAConstraint) {
  // Take the good design and add a closure action that violates x != y.
  Design d = make_running_example(RunningExampleVariant::kWriteYZ);
  const VarId x = d.program.find_variable("x");
  const VarId y = d.program.find_variable("y");
  d.program.add_action(Action(
      "vandal", ActionKind::kClosure,
      [x, y](const State& s) { return s.get(x) != s.get(y); },
      [x, y](State& s) { s.set(y, s.get(x)); }, {x, y}, {y}));
  StateSpace space(d.program);
  const auto cg = infer_constraint_graph(d.program);
  ASSERT_TRUE(cg.ok);
  const auto report = validate_theorem1(d, cg.graph, space);
  EXPECT_FALSE(report.applies);
  EXPECT_NE(report.failure.find("vandal"), std::string::npos);
}

// --- Theorem 2 -------------------------------------------------------------

TEST(Theorem2Test, AcceptsDecreaseXVariant) {
  const Design d = make_running_example(RunningExampleVariant::kDecreaseX);
  StateSpace space(d.program);
  const auto cg = infer_constraint_graph(d.program);
  ASSERT_TRUE(cg.ok);
  const auto report = validate_theorem2(d, cg.graph, space);
  EXPECT_TRUE(report.applies) << format_report(report);
  // Certificate: at node {x}, fix-leq must precede fix-neq.
  const VarId x = d.program.find_variable("x");
  const auto& order =
      report.node_orders[static_cast<std::size_t>(cg.graph.node_of(x))];
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(d.program.action(order[0]).name().substr(0, 7), "fix-leq");
  EXPECT_EQ(d.program.action(order[1]).name().substr(0, 7), "fix-neq");
}

TEST(Theorem2Test, RejectsWriteXBothVariantForWantOfOrder) {
  const Design d = make_running_example(RunningExampleVariant::kWriteXBoth);
  StateSpace space(d.program);
  const auto cg = infer_constraint_graph(d.program);
  ASSERT_TRUE(cg.ok);
  const auto report = validate_theorem2(d, cg.graph, space);
  EXPECT_FALSE(report.applies);
  EXPECT_NE(report.failure.find("linear order"), std::string::npos)
      << format_report(report);
}

TEST(Theorem2Test, AcceptsOutTreesToo) {
  // Out-trees are self-looping graphs with trivial orders.
  const Design d = make_running_example(RunningExampleVariant::kWriteYZ);
  StateSpace space(d.program);
  const auto cg = infer_constraint_graph(d.program);
  const auto report = validate_theorem2(d, cg.graph, space);
  EXPECT_TRUE(report.applies) << format_report(report);
}

TEST(Theorem2Test, AcceptsLeaderElection) {
  const auto le = make_leader_election(4);
  StateSpace space(le.design.program);
  const auto cg = infer_constraint_graph(le.design.program);
  ASSERT_TRUE(cg.ok);
  // Not an out-tree: the self-loop at {ldr.0} disqualifies Theorem 1 ...
  EXPECT_FALSE(
      validate_theorem1(le.design, cg.graph, space).applies);
  // ... but Theorem 2 applies.
  const auto report = validate_theorem2(le.design, cg.graph, space);
  EXPECT_TRUE(report.applies) << format_report(report);
}

// --- Theorem 3 -------------------------------------------------------------

TEST(Theorem3Test, AcceptsLayeredTokenRing) {
  for (const int n : {3, 4}) {
    const auto tr = make_token_ring_bounded(n, 3, /*combined=*/false);
    StateSpace space(tr.design.program);
    const auto report =
        validate_theorem3(tr.design, tr.layers, space);
    EXPECT_TRUE(report.applies) << "n=" << n << "\n" << format_report(report);
  }
}

TEST(Theorem3Test, RejectsTokenRingWithLayersSwapped) {
  // Swapping the layers breaks the hierarchy: with equality as the lowest
  // layer, the increment closure action must preserve x.0 = x.1 whenever
  // ¬S — and the state (2,2,3,2) refutes that (n = 4 is the smallest size
  // where the counterexample is not vacuously excluded).
  const auto tr = make_token_ring_bounded(4, 3, /*combined=*/false);
  StateSpace space(tr.design.program);
  const std::vector<std::vector<std::size_t>> swapped{tr.layers[1],
                                                      tr.layers[0]};
  const auto report = validate_theorem3(tr.design, swapped, space);
  EXPECT_FALSE(report.applies);
}

TEST(Theorem3Test, AcceptsColoringWithPerIdLayers) {
  for (const auto& g :
       {UndirectedGraph::cycle(4), UndirectedGraph::path(5),
        UndirectedGraph::complete(3)}) {
    const auto cd = make_coloring(g);
    StateSpace space(cd.design.program);
    const auto report =
        validate_theorem3(cd.design, cd.layers, space);
    EXPECT_TRUE(report.applies) << format_report(report);
  }
}

// --- Agreement with the exact checker (soundness spot-check) ---------------

TEST(TheoremSoundnessTest, AcceptedDesignsReallyConverge) {
  struct Case {
    Design design;
  };
  std::vector<Design> accepted;
  accepted.push_back(make_running_example(RunningExampleVariant::kWriteYZ));
  accepted.push_back(make_running_example(RunningExampleVariant::kDecreaseX));
  accepted.push_back(
      make_diffusing(RootedTree::balanced(4, 2), false).design);
  accepted.push_back(make_leader_election(4).design);

  for (const Design& d : accepted) {
    StateSpace space(d.program);
    const auto theorem = validate_design(d, space);
    EXPECT_TRUE(theorem.applies) << d.name << "\n" << format_report(theorem);
    const auto exact = check_convergence(space, d.S(), d.T());
    EXPECT_EQ(exact.verdict, ConvergenceVerdict::kConverges) << d.name;
  }
}

TEST(TheoremSoundnessTest, RejectedBrokenDesignReallyLivelocks) {
  const Design d = make_running_example(RunningExampleVariant::kWriteXBoth);
  StateSpace space(d.program);
  EXPECT_FALSE(validate_design(d, space).applies);
  EXPECT_EQ(check_convergence(space, d.S(), d.T()).verdict,
            ConvergenceVerdict::kViolated);
}

TEST(ValidateDesignTest, PicksTheorem1WhenPossible) {
  const Design d = make_running_example(RunningExampleVariant::kWriteYZ);
  StateSpace space(d.program);
  const auto report = validate_design(d, space);
  EXPECT_TRUE(report.applies);
  EXPECT_NE(report.theorem.find("Theorem 1"), std::string::npos);
}

TEST(ValidateDesignTest, FallsBackToTheorem2) {
  const Design d = make_running_example(RunningExampleVariant::kDecreaseX);
  StateSpace space(d.program);
  const auto report = validate_design(d, space);
  EXPECT_TRUE(report.applies);
  EXPECT_NE(report.theorem.find("Theorem 2"), std::string::npos);
}

TEST(FormatReportTest, MentionsVerdictAndShape) {
  const Design d = make_running_example(RunningExampleVariant::kWriteYZ);
  StateSpace space(d.program);
  const auto cg = infer_constraint_graph(d.program);
  const auto report = validate_theorem1(d, cg.graph, space);
  const std::string text = format_report(report);
  EXPECT_NE(text.find("APPLIES"), std::string::npos);
  EXPECT_NE(text.find("out-tree"), std::string::npos);
  EXPECT_NE(text.find("obligations"), std::string::npos);
}

}  // namespace
}  // namespace nonmask
