// Additional coverage for the Section 7 refinement machinery and the
// engine's accounting, exercising combinations the main suites do not.
#include <gtest/gtest.h>

#include "cgraph/refine.hpp"
#include "checker/convergence_check.hpp"
#include "checker/state_space.hpp"
#include "core/describe.hpp"
#include "protocols/spanning_tree.hpp"
#include "engine/simulator.hpp"
#include "faults/injector.hpp"
#include "msg/mp_token_ring.hpp"
#include "protocols/token_ring.hpp"
#include "sched/daemons.hpp"

namespace nonmask {
namespace {

// Restricting the layered token ring's graph to "layer 0 holds" drops
// exactly the layer-0 (>=) edges and keeps the layer-1 (=) edges.
TEST(RefineMoreTest, TokenRingRestrictionDropsSatisfiedLayer) {
  const auto tr = make_token_ring_bounded(4, 3, false);
  const Design& d = tr.design;
  StateSpace space(d.program);

  const auto conv = d.program.actions_of_kind(ActionKind::kConvergence);
  const auto cg = infer_constraint_graph(d.program, conv);
  ASSERT_TRUE(cg.ok);

  std::vector<PredicateFn> layer0;
  for (std::size_t idx : tr.layers[0]) {
    layer0.push_back(
        d.invariant.at(static_cast<std::size_t>(
                           d.program.action(idx).constraint_id()))
            .fn);
  }
  const auto restricted =
      restrict_constraint_graph(d, cg.graph, p_all(layer0), space);
  EXPECT_EQ(restricted.dropped.size(), tr.layers[0].size());
  EXPECT_EQ(static_cast<std::size_t>(restricted.graph.graph.num_edges()),
            tr.layers[1].size());
  for (std::size_t idx : restricted.dropped) {
    // Every dropped edge is a layer-0 action.
    EXPECT_NE(std::find(tr.layers[0].begin(), tr.layers[0].end(), idx),
              tr.layers[0].end());
  }
}

TEST(RefineMoreTest, SuggestLayersGivesUpOnMutualCrossNodeBreaks) {
  // On a cycle, neighboring spanning-tree constraints can break each other
  // across *different* target nodes — no per-node order can fix that, so
  // the heuristic refuses (and indeed Theorems 1-3 cannot apply; only the
  // exact checker proves this protocol, see spanning_tree_test).
  const auto g = UndirectedGraph::cycle(4);
  const auto st = make_spanning_tree(g, 0);
  StateSpace space(st.design.program);
  const auto layers = suggest_layers(st.design, space);
  if (layers.has_value()) {
    // If the heuristic does emit layers, Theorem 3 must still reject them
    // (soundness: acceptance would contradict the cyclic interference).
    const auto report = validate_theorem3(st.design, *layers, space);
    EXPECT_TRUE(report.applies == false ||
                check_convergence(space, st.design.S(), st.design.T())
                        .verdict == ConvergenceVerdict::kConverges);
  }
}

TEST(RefineMoreTest, SuggestLayersRejectsUnboundActions) {
  // Dijkstra's ring annotates constraints without binding convergence
  // actions; no layering is derivable.
  const auto tr = make_dijkstra_ring(4, 5);
  const StateSpace space(tr.design.program);
  EXPECT_FALSE(suggest_layers(tr.design, space).has_value());
}

TEST(RefineMoreTest, DescribeMpRingShowsChannels) {
  const auto mp = make_mp_token_ring(3, 5);
  const std::string text = describe_program(mp.design.program);
  EXPECT_NE(text.find("ch.0 : [-1, 4]"), std::string::npos);
  EXPECT_NE(text.find("[fault] lose@ch.0"), std::string::npos);
  EXPECT_NE(text.find("[closure] send@0"), std::string::npos);
}

TEST(RefineMoreTest, DistributedDaemonMovesExceedSteps) {
  const auto tr = make_dijkstra_ring(24, 25);
  DistributedDaemon daemon(0.8, 5);
  Rng rng(9);
  RunOptions opts;
  opts.max_steps = 200'000;
  const auto r = converge(tr.design, tr.design.program.random_state(rng),
                          daemon, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.moves, r.steps);
}

TEST(RefineMoreTest, TraceSnapshotsAndViolationsTogether) {
  const auto tr = make_token_ring_bounded(4, 3, true);
  RoundRobinDaemon daemon;
  Simulator sim(tr.design.program, daemon);
  RunOptions opts;
  opts.max_steps = 50;
  opts.record_trace = true;
  opts.record_snapshots = true;
  opts.track_violations = &tr.design.invariant;
  opts.stop_when = [](const State&) { return false; };
  // From all-zero the run climbs to the ceiling deterministically
  // (12 steps for n = 4, x_max = 3) and then deadlocks in S.
  const auto r = sim.run(tr.design.program.initial_state(), opts);
  EXPECT_EQ(r.trace.num_steps(), r.steps);
  EXPECT_EQ(r.trace.snapshots().size(), r.steps);
  EXPECT_GE(r.trace.violation_timeline().size(), r.steps);
  EXPECT_NE(r.trace.format(tr.design.program, 5).find("..."),
            std::string::npos);  // truncation marker for long traces
}

TEST(RefineMoreTest, InjectorDeterministicAcrossReset) {
  const auto tr = make_dijkstra_ring(8, 9);
  auto inj = FaultInjector::bernoulli(
      std::make_shared<CorruptKVariables>(2), 0.2, 30, 11);
  State a = tr.design.program.initial_state();
  State b = a;
  for (std::size_t step = 0; step < 100; ++step) {
    inj(step, tr.design.program, a);
  }
  const std::size_t first = inj.faults_injected();
  inj.reset();
  for (std::size_t step = 0; step < 100; ++step) {
    inj(step, tr.design.program, b);
  }
  EXPECT_EQ(inj.faults_injected(), first);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace nonmask
