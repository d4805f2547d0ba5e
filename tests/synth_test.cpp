// Counterexample-guided synthesis: re-derivation of the shipped protocols
// from closure actions + constraints alone, CEGIS pruning behavior,
// determinism across thread counts, certification fallbacks, and negative
// audits of tampered synthesized certificates.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "cgraph/certify.hpp"
#include "cgraph/refine.hpp"
#include "checker/convergence_check.hpp"
#include "checker/falsify.hpp"
#include "checker/state_space.hpp"
#include "protocols/coloring.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/running_example.hpp"
#include "protocols/token_ring.hpp"
#include "synth/report.hpp"
#include "synth/synthesize.hpp"

namespace nonmask {
namespace {

/// Three-variable chain a=b, b=c, c=0 over [0,3]: the candidate grammar
/// yields pools {b:=a, a:=b} x {c:=b, b:=c} x {c:=0}, and the first three
/// combinations livelock (two actions fight over one variable), so the
/// CEGIS loop must falsify, bank seeds, and seed-prune before the
/// right-to-left combination (a:=b, b:=c, c:=0) wins at index 3.
CandidateTriple make_chain_candidate() {
  CandidateTriple t;
  t.program = Program("chain");
  const VarId a = t.program.add_variable({"a", 0, 3});
  const VarId b = t.program.add_variable({"b", 0, 3});
  const VarId c = t.program.add_variable({"c", 0, 3});
  t.invariant.add({"a=b",
                   [a, b](const State& s) { return s.get(a) == s.get(b); },
                   {a, b}});
  t.invariant.add({"b=c",
                   [b, c](const State& s) { return s.get(b) == s.get(c); },
                   {b, c}});
  t.invariant.add({"c=0", [c](const State& s) { return s.get(c) == 0; }, {c}});
  return t;
}

/// Independent re-verification of a synthesized design: exact tolerance
/// plus, when a theorem certified it, a fresh certificate audit.
void expect_sound(const synth::SynthesisResult& result) {
  ASSERT_TRUE(result.success) << result.failure;
  const StateSpace space(result.design.program);
  const auto exact = verify_tolerance(space, result.design);
  EXPECT_TRUE(exact.tolerant()) << result.design.name;
  if (result.certification.theorem_certified()) {
    const auto problems =
        audit_certificate(result.design, result.certification.graph,
                          result.certification.report, space);
    EXPECT_TRUE(problems.empty())
        << result.design.name << ": "
        << (problems.empty() ? "" : problems.front());
  }
}

TEST(SynthTest, RederivesDiffusingWithTheorem1) {
  const auto candidate =
      make_diffusing(RootedTree::balanced(3, 2), false).design.candidate();
  const auto result = synth::synthesize(candidate);
  expect_sound(result);
  EXPECT_EQ(result.certification.method, synth::CertMethod::kTheorem1);
  EXPECT_TRUE(result.certification.theorem_certified());
  // The out-tree certificate carries the rank recurrence over the tree.
  EXPECT_FALSE(result.certification.report.ranks.empty());
  // One synthesized action per non-root constraint.
  EXPECT_EQ(result.winner_actions.size(), candidate.invariant.size());
}

TEST(SynthTest, RederivesTokenRingFromConstraints) {
  const auto candidate =
      make_token_ring_bounded(3, 3, false).design.candidate();
  const auto result = synth::synthesize(candidate);
  expect_sound(result);
  // The layered certificate (Section 7.1's shape) should apply; whatever
  // the cascade settled on, the exact checker's verdict is the contract.
  EXPECT_EQ(result.exact.convergence.verdict, ConvergenceVerdict::kConverges);
  EXPECT_TRUE(result.exact.closure_S.closed);
  EXPECT_TRUE(result.exact.closure_T.closed);
}

TEST(SynthTest, SynthesizesColoringViaSuggestedLayers) {
  // Coloring is hand-coded in protocols/ but never derived; synthesis must
  // find the mex recoloring and certify it through the Theorem 3 fallback
  // (suggest_layers -> validate_theorem3 -> layered audit) end to end.
  const auto candidate =
      make_coloring(UndirectedGraph::cycle(4)).design.candidate();
  const auto result = synth::synthesize(candidate);
  expect_sound(result);
  EXPECT_EQ(result.certification.method, synth::CertMethod::kTheorem3);
  EXPECT_TRUE(result.certification.theorem_certified());
  EXPECT_GE(result.certification.report.layers.size(), 2u);
  // Every winner action is the minimum-excludant recoloring.
  for (const auto& d : result.winner_descriptions) {
    EXPECT_NE(d.find("mex"), std::string::npos) << d;
  }
}

TEST(SynthTest, CegisFalsifiesAndSeedPrunes) {
  synth::SynthesisOptions opts;
  opts.batch = 1;  // one combination per batch: seeds flow between batches
  const auto result = synth::synthesize(make_chain_candidate(), opts);
  expect_sound(result);
  EXPECT_EQ(result.winner_index, 3u);
  EXPECT_EQ(result.total_combinations, 4u);
  // Combination 0 must be killed by the falsifier; its banked cycle states
  // must then prune combinations 1 and 2 without running walks or the
  // exact checker on them.
  EXPECT_GE(result.stats.falsified, 1u);
  EXPECT_GE(result.stats.pruned_by_seed, 2u);
  EXPECT_GE(result.stats.seeds_collected, 1u);
  EXPECT_EQ(result.stats.exact_checks, 1u);
}

TEST(SynthTest, ReportsAreByteIdenticalAcrossThreadCounts) {
  const auto candidate =
      make_token_ring_bounded(3, 3, false).design.candidate();
  std::optional<std::string> reference;
  for (unsigned threads : {1u, 2u, 8u}) {
    synth::SynthesisOptions opts;
    opts.seed = 42;
    opts.threads = threads;
    const auto report =
        synth::render_synthesis_report(synth::synthesize(candidate, opts));
    if (!reference) {
      reference = report;
    } else {
      EXPECT_EQ(report, *reference) << "threads=" << threads;
    }
  }

  // Same contract when seeds accumulate across batch boundaries.
  std::optional<std::string> chain_reference;
  for (unsigned threads : {1u, 8u}) {
    synth::SynthesisOptions opts;
    opts.batch = 1;
    opts.threads = threads;
    const auto report = synth::render_synthesis_report(
        synth::synthesize(make_chain_candidate(), opts));
    if (!chain_reference) {
      chain_reference = report;
    } else {
      EXPECT_EQ(report, *chain_reference);
    }
  }
}

TEST(SynthTest, WritableRestrictionSteersToTheorem2) {
  // Restricting writes to {x} forces the Section 6 kDecreaseX-style
  // solution: both synthesized actions write x, the constraint graph is
  // self-looping, and Theorem 2's per-node linear order certifies it.
  const auto candidate =
      make_running_example(RunningExampleVariant::kWriteYZ).candidate();
  synth::SynthesisOptions opts;
  opts.grammar.writable = {candidate.program.find_variable("x")};
  const auto result = synth::synthesize(candidate, opts);
  expect_sound(result);
  EXPECT_EQ(result.certification.method, synth::CertMethod::kTheorem2);
  EXPECT_FALSE(result.certification.report.node_orders.empty());
}

TEST(SynthTest, TamperedSynthesizedRanksRejected) {
  const auto result = synth::synthesize(
      make_diffusing(RootedTree::balanced(3, 2), false).design.candidate());
  ASSERT_TRUE(result.success) << result.failure;
  ASSERT_EQ(result.certification.method, synth::CertMethod::kTheorem1);
  const StateSpace space(result.design.program);

  auto tampered = result.certification.report;
  ASSERT_FALSE(tampered.ranks.empty());
  tampered.ranks.back() += 1;
  const auto problems = audit_certificate(
      result.design, result.certification.graph, tampered, space);
  EXPECT_FALSE(problems.empty());
}

TEST(SynthTest, TamperedSynthesizedOrderRejected) {
  const auto candidate =
      make_running_example(RunningExampleVariant::kWriteYZ).candidate();
  synth::SynthesisOptions sopts;
  sopts.grammar.writable = {candidate.program.find_variable("x")};
  const auto result = synth::synthesize(candidate, sopts);
  ASSERT_TRUE(result.success) << result.failure;
  ASSERT_EQ(result.certification.method, synth::CertMethod::kTheorem2);

  const StateSpace space(result.design.program);
  auto tampered = result.certification.report;
  bool reversed = false;
  for (auto& order : tampered.node_orders) {
    if (order.size() >= 2) {
      std::swap(order.front(), order.back());
      reversed = true;
    }
  }
  ASSERT_TRUE(reversed);  // the self-loop node carries both actions
  const auto problems = audit_certificate(
      result.design, result.certification.graph, tampered, space);
  EXPECT_FALSE(problems.empty());
}

TEST(SynthTest, TamperedSynthesizedLayersRejected) {
  const auto result = synth::synthesize(
      make_coloring(UndirectedGraph::cycle(4)).design.candidate());
  ASSERT_TRUE(result.success) << result.failure;
  ASSERT_EQ(result.certification.method, synth::CertMethod::kTheorem3);
  const StateSpace space(result.design.program);

  // Dropping an action breaks the partition requirement.
  auto missing = result.certification.report;
  ASSERT_FALSE(missing.layers.empty());
  ASSERT_FALSE(missing.layers.front().empty());
  missing.layers.front().clear();
  auto problems = audit_certificate(result.design,
                                    result.certification.graph, missing, space);
  EXPECT_FALSE(problems.empty());

  // Reversing the layer order breaks the cross-layer preserves
  // obligations (a higher layer's recoloring can violate a lower layer's
  // constraint in the reversed hierarchy).
  auto reversed = result.certification.report;
  std::reverse(reversed.layers.begin(), reversed.layers.end());
  problems = audit_certificate(result.design, result.certification.graph,
                               reversed, space);
  EXPECT_FALSE(problems.empty());
}

TEST(SynthTest, SuggestLayersEdgeCases) {
  // No convergence actions: nothing to layer.
  const auto candidate =
      make_coloring(UndirectedGraph::cycle(4)).design.candidate();
  const Design bare = candidate.augmented({});
  const StateSpace bare_space(bare.program);
  EXPECT_FALSE(suggest_layers(bare, bare_space).has_value());

  // Single constraint over a single variable: the synthesized design has
  // one convergence action and suggest_layers emits exactly one layer.
  CandidateTriple single;
  single.program = Program("single");
  const VarId a = single.program.add_variable({"a", 0, 3});
  single.invariant.add(
      {"a=0", [a](const State& s) { return s.get(a) == 0; }, {a}});
  const auto result = synth::synthesize(single);
  ASSERT_TRUE(result.success) << result.failure;
  const StateSpace space(result.design.program);
  const auto layers = suggest_layers(result.design, space);
  ASSERT_TRUE(layers.has_value());
  ASSERT_EQ(layers->size(), 1u);
  EXPECT_EQ(layers->front().size(), 1u);
  const auto report = validate_theorem3(result.design, *layers, space);
  EXPECT_TRUE(report.applies) << report.failure;
}

TEST(SynthTest, FailureModesReported) {
  // A candidate that already contains convergence actions is rejected.
  const Design full = make_running_example(RunningExampleVariant::kWriteYZ);
  CandidateTriple bad;
  bad.program = full.program;  // convergence actions still inside
  bad.invariant = full.invariant;
  const auto r1 = synth::synthesize(bad);
  EXPECT_FALSE(r1.success);
  EXPECT_NE(r1.failure.find("convergence"), std::string::npos);

  // A writable restriction that leaves some constraint with no writable
  // support variable empties that pool.
  const auto candidate =
      make_running_example(RunningExampleVariant::kWriteYZ).candidate();
  synth::SynthesisOptions opts;
  opts.grammar.writable = {candidate.program.find_variable("y")};
  const auto r2 = synth::synthesize(candidate, opts);
  EXPECT_FALSE(r2.success);
  EXPECT_NE(r2.failure.find("survives local pruning"), std::string::npos);

  // No constraints at all.
  CandidateTriple empty;
  empty.program = Program("empty");
  empty.program.add_variable({"a", 0, 1});
  const auto r3 = synth::synthesize(empty);
  EXPECT_FALSE(r3.success);
}

TEST(SynthTest, ProbeCertifiesViolationsSoundly) {
  // kWriteXBoth livelocks (Section 6's negative example): the bounded
  // probe must certify a violation from a state inside the livelock
  // region, and must report nothing from an S state.
  const Design d = make_running_example(RunningExampleVariant::kWriteXBoth);
  const StateSpace space(d.program);
  const auto exact = check_convergence(space, d.S(), d.T());
  ASSERT_EQ(exact.verdict, ConvergenceVerdict::kViolated);
  ASSERT_TRUE(exact.cycle.has_value());

  const auto probed = probe_violation_from(d, exact.cycle->front());
  EXPECT_TRUE(probed.violated);
  EXPECT_TRUE(probed.cycle.has_value() || probed.deadlock.has_value());

  // From inside S the probe reports nothing (start must satisfy T ∧ ¬S).
  const PredicateFn S = d.S();
  State in_s(d.program.num_variables());
  bool found = false;
  for (std::uint64_t code = 0; code < space.size() && !found; ++code) {
    space.decode_into(code, in_s);
    if (S(in_s)) found = true;
  }
  ASSERT_TRUE(found);
  EXPECT_FALSE(probe_violation_from(d, in_s).violated);
}

}  // namespace
}  // namespace nonmask
