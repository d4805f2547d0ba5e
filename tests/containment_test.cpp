// Tests for the restricted fault models (checker/restricted.hpp), the
// Byzantine containment-radius pass (checker/containment.hpp), the
// adversarial placement search, and the certification triage built on them.
//
// The hand-checkable fixture is the BFS spanning tree on the 5-path rooted
// at 0 (fixpoint dist = [0,1,2,3,4]):
//   * Byzantine leaf {4}: only node 3 can be dragged off its fixpoint
//     (dist.3 = min(dist.2, dist.4)+1 with dist.2 pinned at 2 -> radius 1,
//     the Dubois–Masuzawa–Tixeuil min+1 shape), nodes 0..2 stay clean.
//   * Byzantine interior {1}: everything below it corrupts (radius 3 =
//     horizon), but the root stays clean.
// Dijkstra's ring cannot contain any placement: the corrupted token value
// circulates to every correct process.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "checker/containment.hpp"
#include "checker/restricted.hpp"
#include "core/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "protocols/spanning_tree.hpp"
#include "protocols/token_ring.hpp"
#include "resilience/adversary.hpp"
#include "synth/triage.hpp"

namespace nonmask {
namespace {

SpanningTreeDesign path5_tree() {
  return make_spanning_tree(UndirectedGraph::path(5), 0);
}

ContainmentReport measure(const Design& d, const std::vector<int>& byz,
                          unsigned threads = 0) {
  store::StoreConfig config;
  config.threads = threads;
  config.grain = 16;  // so even these small spaces run on `threads` workers
  return measure_containment(
      d.program, byz,
      containment_fixpoint(d.program, d.program.initial_state()), config);
}

/// One variable x owned by process 0 and one convergence action x := 0
/// pinned to `action_process`.
Design single_owner_design(int action_process) {
  ProgramBuilder b("single-owner");
  const VarId x = b.var("x", 0, 1, 0);
  b.convergence(
      "fix", [x](const State& s) { return s.get(x) != 0; },
      [x](State& s) { s.set(x, 0); }, {x}, {x}, 0, action_process);
  Design d;
  d.name = "single-owner";
  d.program = b.build();
  Invariant inv;
  inv.add(Constraint{"x = 0",
                     [x](const State& s) { return s.get(x) == 0; },
                     {x}});
  d.invariant = std::move(inv);
  return d;
}

TEST(RestrictedTest, CommunicationGraphAndDistances) {
  const auto st = path5_tree();
  const UndirectedGraph g = communication_graph(st.design.program);
  ASSERT_EQ(g.size(), 5);
  EXPECT_EQ(distances_from(g, {4}), (std::vector<int>{4, 3, 2, 1, 0}));
  EXPECT_EQ(distances_from(g, {1, 3}), (std::vector<int>{1, 0, 1, 0, 1}));
}

TEST(RestrictedTest, ComposeByzantineShape) {
  const auto st = path5_tree();
  const Program composed = compose_byzantine(st.design.program, {4});
  std::size_t env = 0, kept = 0;
  for (const auto& a : composed.actions()) {
    if (a.kind() == ActionKind::kEnvironment) {
      EXPECT_EQ(a.process(), 4);
      ++env;
    } else {
      EXPECT_NE(a.process(), 4);
      ++kept;
    }
  }
  EXPECT_EQ(env, 5u);  // one write action per value of dist.4 in [0,4]
  EXPECT_EQ(kept, st.design.program.actions().size() - 1);
  EXPECT_THROW(compose_byzantine(st.design.program, {99}),
               std::invalid_argument);
}

TEST(RestrictedTest, ValidateEnvironmentRejectsProgramWritesToEnvVars) {
  ProgramBuilder b("bad-env");
  const VarId x = b.var("x", 0, 1, 0);
  b.closure(
      "flip", [x](const State& s) { return s.get(x) == 1; },
      [x](State& s) { s.set(x, 0); }, {x}, {x});
  b.environment(
      "env-x", [](const State&) { return true; },
      [x](State& s) { s.set(x, 1); }, {x}, {x});
  EXPECT_THROW(validate_environment(b.build()), std::invalid_argument);
  EXPECT_NO_THROW(validate_environment(
      make_spanning_tree_with_environment(UndirectedGraph::path(4), 0)
          .design.program));
}

TEST(ContainmentTest, SpanningTreeLeafPlacementContained) {
  const auto st = path5_tree();
  const ContainmentReport rep = measure(st.design, {4});
  EXPECT_TRUE(rep.fixpoint_reached);
  EXPECT_EQ(rep.radius, 1);  // min+1 shape: only node 3 ever deviates
  EXPECT_EQ(rep.horizon, 4);
  EXPECT_TRUE(rep.contained);
  ASSERT_EQ(rep.process_dirty.size(), 5u);
  EXPECT_EQ(rep.process_dirty[0], 0);
  EXPECT_EQ(rep.process_dirty[1], 0);
  EXPECT_EQ(rep.process_dirty[2], 0);
  EXPECT_EQ(rep.process_dirty[3], 1);
  EXPECT_EQ(rep.process_distance[3], 1);
  EXPECT_GE(rep.time_to_containment, 1u);
  EXPECT_LE(rep.time_to_containment, rep.levels);
}

TEST(ContainmentTest, SpanningTreeInteriorPlacementNotContained) {
  const auto st = path5_tree();
  const ContainmentReport rep = measure(st.design, {1});
  EXPECT_EQ(rep.radius, 3);  // nodes 2,3,4 all corrupt
  EXPECT_EQ(rep.horizon, 3);
  EXPECT_FALSE(rep.contained);
  EXPECT_EQ(rep.process_dirty[0], 0);  // the root still holds
}

TEST(ContainmentTest, TokenRingNeverContains) {
  const auto ring = make_dijkstra_ring(5, 5);
  const ContainmentReport rep = measure(ring.design, {2});
  EXPECT_EQ(rep.radius, rep.horizon);
  EXPECT_FALSE(rep.contained);
}

TEST(ContainmentTest, ReportInvariantToThreadCount) {
  const auto check = [](const Design& design, const std::vector<int>& byz) {
    const ContainmentReport base = measure(design, byz, 1);
    for (unsigned threads : {2u, 8u}) {
      const ContainmentReport rep = measure(design, byz, threads);
      EXPECT_EQ(rep.radius, base.radius);
      EXPECT_EQ(rep.horizon, base.horizon);
      EXPECT_EQ(rep.contained, base.contained);
      EXPECT_EQ(rep.reachable_states, base.reachable_states);
      EXPECT_EQ(rep.levels, base.levels);
      EXPECT_EQ(rep.time_to_containment, base.time_to_containment);
      EXPECT_EQ(rep.process_dirty, base.process_dirty);
      EXPECT_EQ(containment_to_json(design.program, rep),
                containment_to_json(design.program, base));
    }
  };
  check(path5_tree().design, {4});
  check(make_dijkstra_ring(5, 5).design, {2});
}

TEST(ContainmentTest, StoreBudgetBoundsTheComposedSpace) {
  // At the composed space's exact size the pass runs; one state less and
  // it throws before exploring anything.
  const auto st = path5_tree();
  const auto count = compose_byzantine(st.design.program, {4}).state_count();
  ASSERT_TRUE(count.has_value());
  const ContainmentFixpoint fix = containment_fixpoint(
      st.design.program, st.design.program.initial_state());
  store::StoreConfig config;
  config.budget = *count;
  EXPECT_TRUE(
      measure_containment(st.design.program, {4}, fix, config).contained);
  config.budget = *count - 1;
  EXPECT_THROW(measure_containment(st.design.program, {4}, fix, config),
               StateSpaceTooLarge);
}

// Containment explores on the frontier engine, so one call feeds the
// heartbeat's explored-states count and the engine's reach counter with
// exactly the region it reports: a part of the composed space for the
// tree's leaf, all of it for the ring's pair (the last level fills the
// space before it is fully merged).
TEST(ContainmentTest, RegionFeedsTheRegistryCounters) {
  obs::Metrics::set_enabled(true);
  obs::Counter& reach = obs::Registry::instance().counter("store.reach.states");
  const auto check = [&](const Design& design, const std::vector<int>& byz) {
    const std::uint64_t explored_before = obs::explored_states()->value();
    const std::uint64_t reach_before = reach.value();
    const ContainmentReport rep = measure(design, byz, 1);
    EXPECT_EQ(obs::explored_states()->value() - explored_before,
              rep.reachable_states);
    EXPECT_EQ(reach.value() - reach_before, rep.reachable_states);
    return rep.reachable_states;
  };
  const auto composed_states = [](const Design& design,
                                  const std::vector<int>& byz) {
    return *compose_byzantine(design.program, byz).state_count();
  };
  const Design tree = path5_tree().design;
  const Design ring = make_dijkstra_ring(5, 5).design;
  EXPECT_LT(check(tree, {4}), composed_states(tree, {4}));
  EXPECT_EQ(check(ring, {2, 3}), composed_states(ring, {2, 3}));
  obs::Metrics::set_enabled(false);
}

TEST(ContainmentTest, JsonCarriesPlacementAndVerdict) {
  const auto st = path5_tree();
  const ContainmentReport rep = measure(st.design, {4});
  const std::string json = containment_to_json(st.design.program, rep);
  EXPECT_NE(json.find("\"byzantine\":[4]"), std::string::npos);
  EXPECT_NE(json.find("\"radius\":1"), std::string::npos);
  EXPECT_NE(json.find("\"contained\":true"), std::string::npos);
}

TEST(ByzantinePlacementTest, TreeWorstPlacementIsTheRootAdjacentInterior) {
  const auto st = path5_tree();
  ByzantinePlacementOptions opts;
  const ByzantinePlacementResult r =
      find_worst_byzantine_placement(st.design, opts);
  EXPECT_TRUE(r.exhaustive);
  EXPECT_TRUE(r.report_exact);
  EXPECT_EQ(r.byzantine, (std::vector<int>{1}));
  EXPECT_EQ(r.report.radius, 3);
  EXPECT_TRUE(r.convergence_destroyed);
  EXPECT_EQ(r.evaluations, 5u);
}

TEST(ByzantinePlacementTest, RingAnyPlacementDestroysContainment) {
  const auto ring = make_dijkstra_ring(5, 5);
  const ByzantinePlacementResult r =
      find_worst_byzantine_placement(ring.design, {});
  EXPECT_TRUE(r.report_exact);
  EXPECT_TRUE(r.convergence_destroyed);
  EXPECT_EQ(r.report.radius, r.report.horizon);
}

TEST(ByzantinePlacementTest, HillClimbDeterministicPerSeed) {
  const auto st = path5_tree();
  ByzantinePlacementOptions opts;
  opts.force_hill_climb = true;
  opts.seed = 42;
  const ByzantinePlacementResult a =
      find_worst_byzantine_placement(st.design, opts);
  const ByzantinePlacementResult b =
      find_worst_byzantine_placement(st.design, opts);
  EXPECT_FALSE(a.exhaustive);
  EXPECT_EQ(a.byzantine, b.byzantine);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.report_exact, b.report_exact);
  EXPECT_EQ(a.report.radius, b.report.radius);
}

TEST(ByzantinePlacementTest, ThrowsBelowTwoProcesses) {
  EXPECT_THROW(find_worst_byzantine_placement(single_owner_design(0), {}),
               std::invalid_argument);
}

TEST(ByzantinePlacementTest, ThrowsWhenTooFewProcessesOwnVariables) {
  // Three processes, but only process 0 owns a variable: no two of them
  // can both be Byzantine. Both modes refuse; the hill-climb would
  // otherwise draw random subsets forever.
  const Design d = single_owner_design(2);
  ByzantinePlacementOptions opts;
  opts.num_byzantine = 2;
  EXPECT_THROW(find_worst_byzantine_placement(d, opts), std::invalid_argument);
  opts.force_hill_climb = true;
  EXPECT_THROW(find_worst_byzantine_placement(d, opts), std::invalid_argument);
}

TEST(TriageTest, SpanningTreeSurvivesByzantine) {
  const auto rows = synth::triage_design(path5_tree().design);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].regime, FaultRegime::kTransient);
  EXPECT_NE(rows[0].verdict, synth::TriageVerdict::kRefuted);
  EXPECT_EQ(rows[1].regime, FaultRegime::kByzantine);
  EXPECT_EQ(rows[1].verdict, synth::TriageVerdict::kSurvives);
}

TEST(TriageTest, RingByzantineRefuted) {
  const auto rows =
      synth::triage_design(make_dijkstra_ring(5, 5).design);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].regime, FaultRegime::kByzantine);
  EXPECT_EQ(rows[1].verdict, synth::TriageVerdict::kRefuted);
}

TEST(TriageTest, EnvironmentCompositionFallsBackToWeakFairness) {
  const auto env =
      make_spanning_tree_with_environment(UndirectedGraph::path(4), 0);
  const auto rows = synth::triage_design(env.design);
  ASSERT_EQ(rows.size(), 3u);
  // The naive transient audit refutes the composed system (the free-running
  // environment action can starve convergence under an unfair daemon)...
  EXPECT_EQ(rows[0].regime, FaultRegime::kTransient);
  // ...while the fairness-aware environment audit recovers a weaker
  // guarantee instead of giving up.
  EXPECT_EQ(rows[2].regime, FaultRegime::kEnvironment);
  EXPECT_EQ(rows[2].verdict, synth::TriageVerdict::kFallsBack);
}

TEST(TriageTest, JsonAndDashboardShapes) {
  const auto rows = synth::triage_design(path5_tree().design);
  const std::string json = synth::triage_to_json(rows);
  EXPECT_NE(json.find("\"fault_model\":\"byzantine\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"survives\""), std::string::npos);
  const obs::DashboardTable table = synth::triage_dashboard_table(rows);
  EXPECT_EQ(table.columns.size(), 4u);
  EXPECT_EQ(table.rows.size(), rows.size());
}

}  // namespace
}  // namespace nonmask
