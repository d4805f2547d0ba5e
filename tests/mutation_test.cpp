// Mutation tests: break each protocol in a specific, realistic way and
// assert the exact checker refutes the mutant. This guards the test suite
// itself — if the checker (or the protocols' S predicates) ever weakened,
// these mutants would start passing.
#include <gtest/gtest.h>

#include "checker/convergence_check.hpp"
#include "checker/state_space.hpp"
#include "core/builder.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/matching.hpp"
#include "protocols/token_ring.hpp"
#include "store/facade.hpp"

namespace nonmask {
namespace {

// Mutant: the diffusing correction copies the color but forgets the
// session number. A node whose color already matches but whose session
// differs then "corrects" without changing anything — a self-loop outside
// S that the checker must exhibit as a cycle.
TEST(MutationTest, DiffusingWithoutSessionCopyLivelocks) {
  const auto tree = RootedTree::chain(3);
  const auto good = make_diffusing(tree, true);

  ProgramBuilder b("diffusing-mutant");
  for (const auto& v : good.design.program.variables()) b.var(v.name, v.lo, v.hi, v.process);
  Program mutant_program = b.build();
  for (const auto& a : good.design.program.actions()) {
    if (a.name().rfind("propagate-or-correct", 0) == 0) {
      // Rebuild the action with a statement that copies only the color.
      const int j = a.process();
      const VarId cj = good.color[static_cast<std::size_t>(j)];
      const VarId cp = good.color[static_cast<std::size_t>(tree.parent(j))];
      Action broken(
          a.name() + "-mutant", a.kind(), a.guard(),
          [cj, cp](State& s) { s.set(cj, s.get(cp)); }, a.reads(), {cj},
          a.process());
      broken.set_constraint_id(a.constraint_id());
      mutant_program.add_action(std::move(broken));
    } else {
      mutant_program.add_action(a);
    }
  }
  Design mutant;
  mutant.program = std::move(mutant_program);
  mutant.invariant = good.design.invariant;
  mutant.fault_span = true_predicate();

  StateSpace space(mutant.program);
  const auto report = check_convergence(space, mutant.S(), mutant.T());
  EXPECT_EQ(report.verdict, ConvergenceVerdict::kViolated);
  EXPECT_TRUE(report.cycle.has_value());
}

// Mutant: matching without the retract rule. Chains of one-directional
// proposals wedge: a node pointing at an already-married neighbor can
// never withdraw — a ¬S deadlock.
TEST(MutationTest, MatchingWithoutRetractDeadlocks) {
  const auto g = UndirectedGraph::path(3);
  const auto good = make_matching(g);

  Design mutant;
  mutant.program = Program("matching-mutant");
  for (const auto& v : good.design.program.variables()) {
    mutant.program.add_variable(v);
  }
  for (const auto& a : good.design.program.actions()) {
    if (a.name().rfind("retract", 0) == 0) continue;
    mutant.program.add_action(a);
  }
  mutant.S_override = good.design.S_override;
  mutant.fault_span = true_predicate();

  StateSpace space(mutant.program);
  const auto report = check_convergence(space, mutant.S(), mutant.T());
  EXPECT_EQ(report.verdict, ConvergenceVerdict::kViolated);
  EXPECT_TRUE(report.deadlock.has_value());
}

// Mutant: the bounded token ring without the ceiling guard. The increment
// drives x.0 out of its domain — the in-domain audit catches it even
// though the paper's unbounded semantics would be fine.
TEST(MutationTest, UnguardedIncrementEscapesDomain) {
  const auto good = make_token_ring_bounded(3, 2, true);
  Design mutant;
  mutant.program = Program("ring-mutant");
  for (const auto& v : good.design.program.variables()) {
    mutant.program.add_variable(v);
  }
  const VarId x0 = good.x[0];
  const VarId xN = good.x[2];
  mutant.program.add_action(Action(
      "increment-unguarded", ActionKind::kClosure,
      [x0, xN](const State& s) { return s.get(x0) == s.get(xN); },
      [x0](State& s) { s.set(x0, s.get(x0) + 1); }, {x0, xN}, {x0}, 0));
  for (const auto& a : good.design.program.actions()) {
    if (a.name().rfind("increment", 0) == 0) continue;
    mutant.program.add_action(a);
  }

  StateSpace space(mutant.program);
  bool escaped = false;
  State s(mutant.program.num_variables());
  for (std::uint64_t code = 0; code < space.size() && !escaped; ++code) {
    space.decode_into(code, s);
    for (const auto& a : mutant.program.actions()) {
      if (a.enabled(s) && !mutant.program.in_domain(a.apply(s))) {
        escaped = true;
        break;
      }
    }
  }
  EXPECT_TRUE(escaped);
  // The exact check does not encode the escaped successor into a wrong
  // code: it throws, naming the variable.
  try {
    store::verify_tolerance_via(store::StoreConfig{}, space, mutant);
    ADD_FAILURE() << "expected StateOutOfDomain";
  } catch (const StateOutOfDomain& e) {
    EXPECT_EQ(e.variable(), mutant.program.variable(x0).name);
  }
}

// Control: the same rebuild pipeline applied without mutation preserves
// the original verdict (guards the test harness against rebuild bugs).
TEST(MutationTest, IdentityRebuildPreservesVerdict) {
  const auto tree = RootedTree::chain(3);
  const auto good = make_diffusing(tree, true);
  Design copy;
  copy.program = Program("diffusing-copy");
  for (const auto& v : good.design.program.variables()) {
    copy.program.add_variable(v);
  }
  for (const auto& a : good.design.program.actions()) {
    copy.program.add_action(a);
  }
  copy.invariant = good.design.invariant;
  copy.fault_span = true_predicate();
  StateSpace space(copy.program);
  EXPECT_EQ(check_convergence(space, copy.S(), copy.T()).verdict,
            ConvergenceVerdict::kConverges);
}

}  // namespace
}  // namespace nonmask
