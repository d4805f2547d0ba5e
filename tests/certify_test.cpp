// Certificate auditing: valid certificates verify; tampered ones are
// caught.
#include <gtest/gtest.h>

#include "cgraph/certify.hpp"
#include "checker/state_space.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/leader_election.hpp"
#include "protocols/running_example.hpp"

namespace nonmask {
namespace {

TEST(CertifyTest, ValidCertificatesAudit) {
  struct Case {
    Design design;
  };
  std::vector<Design> designs;
  designs.push_back(make_running_example(RunningExampleVariant::kWriteYZ));
  designs.push_back(make_running_example(RunningExampleVariant::kDecreaseX));
  designs.push_back(make_diffusing(RootedTree::balanced(4, 2), false).design);
  designs.push_back(make_leader_election(4).design);

  for (const Design& d : designs) {
    StateSpace space(d.program);
    const auto cg = infer_constraint_graph(d.program);
    ASSERT_TRUE(cg.ok);
    auto report = validate_theorem1(d, cg.graph, space);
    if (!report.applies) report = validate_theorem2(d, cg.graph, space);
    ASSERT_TRUE(report.applies) << d.name;
    const auto problems = audit_certificate(d, cg.graph, report, space);
    EXPECT_TRUE(problems.empty())
        << d.name << ": " << (problems.empty() ? "" : problems.front());
  }
}

TEST(CertifyTest, TamperedRanksDetected) {
  const Design d = make_running_example(RunningExampleVariant::kWriteYZ);
  StateSpace space(d.program);
  const auto cg = infer_constraint_graph(d.program);
  auto report = validate_theorem1(d, cg.graph, space);
  ASSERT_TRUE(report.applies);
  report.ranks[0] = 99;
  const auto problems = audit_certificate(d, cg.graph, report, space);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("rank recurrence"), std::string::npos);
}

TEST(CertifyTest, TamperedOrderDetected) {
  const Design d = make_running_example(RunningExampleVariant::kDecreaseX);
  StateSpace space(d.program);
  const auto cg = infer_constraint_graph(d.program);
  auto report = validate_theorem2(d, cg.graph, space);
  ASSERT_TRUE(report.applies);
  // Swap the certified order at node {x}: fix-neq before fix-leq is wrong
  // (fix-leq does not preserve x != y).
  const int node = cg.graph.node_of(d.program.find_variable("x"));
  auto& order = report.node_orders[static_cast<std::size_t>(node)];
  ASSERT_EQ(order.size(), 2u);
  std::swap(order[0], order[1]);
  const auto problems = audit_certificate(d, cg.graph, report, space);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("does not preserve"), std::string::npos);
}

TEST(CertifyTest, ForeignActionInOrderDetected) {
  const Design d = make_running_example(RunningExampleVariant::kDecreaseX);
  StateSpace space(d.program);
  const auto cg = infer_constraint_graph(d.program);
  auto report = validate_theorem2(d, cg.graph, space);
  ASSERT_TRUE(report.applies);
  const int node = cg.graph.node_of(d.program.find_variable("x"));
  report.node_orders[static_cast<std::size_t>(node)] = {0, 0};
  const auto problems = audit_certificate(d, cg.graph, report, space);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("not a permutation"), std::string::npos);
}

TEST(CertifyTest, NonApplyingReportsAuditTrivially) {
  const Design d = make_running_example(RunningExampleVariant::kWriteXBoth);
  StateSpace space(d.program);
  const auto cg = infer_constraint_graph(d.program);
  const auto report = validate_theorem2(d, cg.graph, space);
  ASSERT_FALSE(report.applies);
  EXPECT_TRUE(audit_certificate(d, cg.graph, report, space).empty());
}

}  // namespace
}  // namespace nonmask
