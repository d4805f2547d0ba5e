// Cross-module integration: the full design-method pipeline on every
// protocol — write-set contracts, theorem validation vs exact checking vs
// simulation, fault injection, and daemon sweeps.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "cgraph/theorems.hpp"
#include "checker/closure_check.hpp"
#include "checker/convergence_check.hpp"
#include "checker/state_space.hpp"
#include "checker/variant.hpp"
#include "engine/simulator.hpp"
#include "faults/fault.hpp"
#include "faults/injector.hpp"
#include "msg/mp_diffusing.hpp"
#include "msg/mp_token_ring.hpp"
#include "protocols/atomic_action.hpp"
#include "protocols/coloring.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/leader_election.hpp"
#include "protocols/matching.hpp"
#include "protocols/running_example.hpp"
#include "protocols/spanning_tree.hpp"
#include "protocols/token_ring.hpp"
#include "sched/daemons.hpp"

namespace nonmask {
namespace {

/// Every shipped design, at checker-friendly scale.
std::vector<Design> all_small_designs() {
  std::vector<Design> out;
  out.push_back(make_running_example(RunningExampleVariant::kWriteYZ));
  out.push_back(make_running_example(RunningExampleVariant::kDecreaseX));
  out.push_back(make_diffusing(RootedTree::balanced(5, 2), true).design);
  out.push_back(make_diffusing(RootedTree::chain(4), false).design);
  out.push_back(make_token_ring_bounded(4, 3, true).design);
  out.push_back(make_token_ring_bounded(3, 3, false).design);
  out.push_back(make_dijkstra_ring(4, 5).design);
  out.push_back(make_spanning_tree(UndirectedGraph::cycle(4)).design);
  out.push_back(make_coloring(UndirectedGraph::grid(2, 2)).design);
  out.push_back(make_matching(UndirectedGraph::path(4)).design);
  out.push_back(make_leader_election(4).design);
  out.push_back(make_atomic_action(2).design);
  out.push_back(make_mp_token_ring(2, 3).design);
  out.push_back(make_mp_diffusing(RootedTree::chain(3)).design);
  return out;
}

// Every action of every protocol honors its declared write set at every
// state — the foundation under constraint graphs.
TEST(IntegrationTest, AllProtocolsHonorWriteSetContracts) {
  for (const Design& d : all_small_designs()) {
    StateSpace space(d.program);
    State s(d.program.num_variables());
    for (std::uint64_t code = 0; code < space.size(); ++code) {
      space.decode_into(code, s);
      const std::string report = d.program.check_contracts(s);
      ASSERT_EQ(report, "") << d.name << ": " << report;
    }
  }
}

// Program actions keep states inside variable domains.
TEST(IntegrationTest, AllProtocolsStayInDomain) {
  for (const Design& d : all_small_designs()) {
    StateSpace space(d.program);
    State s(d.program.num_variables());
    for (std::uint64_t code = 0; code < space.size(); ++code) {
      space.decode_into(code, s);
      for (const auto& a : d.program.actions()) {
        if (a.kind() == ActionKind::kFault || !a.enabled(s)) continue;
        EXPECT_TRUE(d.program.in_domain(a.apply(s)))
            << d.name << " action " << a.name();
      }
    }
  }
}

// S and T closed for every design (the closure half of T-tolerance).
TEST(IntegrationTest, ClosureHoldsEverywhere) {
  for (const Design& d : all_small_designs()) {
    StateSpace space(d.program);
    EXPECT_TRUE(check_closed(space, d.S()).closed) << d.name;
    EXPECT_TRUE(check_closed(space, d.T()).closed) << d.name;
  }
}

// Exact convergence verdicts: every design converges from its fault-span
// except the deliberately-broken running example and the fairness-needing
// message-passing ring.
TEST(IntegrationTest, ConvergenceVerdictsMatchExpectations) {
  for (const Design& d : all_small_designs()) {
    StateSpace space(d.program);
    const auto report = check_convergence(space, d.S(), d.T());
    const bool needs_fairness = d.name == "mp-token-ring";
    if (needs_fairness) {
      EXPECT_EQ(report.verdict, ConvergenceVerdict::kViolated) << d.name;
    } else {
      EXPECT_EQ(report.verdict, ConvergenceVerdict::kConverges) << d.name;
    }
  }
}

// Simulation agrees with the checker: converging designs converge from
// random states under a weakly fair daemon within the checker's worst-case
// bound times a slack factor (rounds-to-steps conversion).
TEST(IntegrationTest, SimulationRespectsCheckerBound) {
  for (const Design& d : all_small_designs()) {
    if (d.name == "mp-token-ring") continue;  // needs fairness
    StateSpace space(d.program);
    const auto report = check_convergence(space, d.S(), d.T());
    ASSERT_EQ(report.verdict, ConvergenceVerdict::kConverges) << d.name;

    RoundRobinDaemon daemon;
    Rng rng(271);
    const auto T = d.T();
    for (int trial = 0; trial < 20; ++trial) {
      State start = d.program.random_state(rng);
      if (!T(start)) continue;  // respect the fault-span
      RunOptions opts;
      // Generous: every ¬S step the daemon wastes still ends within
      // max_steps_to_S * actions sweeps.
      opts.max_steps =
          (report.max_steps_to_S + 2) * (d.program.num_actions() + 1) * 4;
      const auto r = converge(d, start, daemon, opts);
      EXPECT_TRUE(r.converged) << d.name << " trial " << trial;
    }
  }
}

// The variant function never increases along any transition in ¬S — the
// Section 8 well-foundedness property, checked for the paper's designs.
TEST(IntegrationTest, VariantNeverIncreasesOutsideS) {
  std::vector<Design> designs;
  designs.push_back(make_running_example(RunningExampleVariant::kWriteYZ));
  designs.push_back(make_diffusing(RootedTree::chain(3), true).design);
  designs.push_back(make_token_ring_bounded(3, 2, true).design);
  for (const Design& d : designs) {
    StateSpace space(d.program);
    const auto variant = compute_variant(space, d.S());
    ASSERT_TRUE(variant.has_value()) << d.name;
    const auto S = d.S();
    State s(d.program.num_variables());
    for (std::uint64_t code = 0; code < space.size(); ++code) {
      space.decode_into(code, s);
      if (S(s)) continue;
      for (const auto& a : d.program.actions()) {
        if (a.kind() == ActionKind::kFault || !a.enabled(s)) continue;
        const State next = a.apply(s);
        EXPECT_LT((*variant)(next), (*variant)(s))
            << d.name << " action " << a.name();
      }
    }
  }
}

// Fault -> repair -> fault -> repair: the nonmasking contract at system
// level, with violation telemetry proving a genuine (temporary) violation.
TEST(IntegrationTest, NonmaskingRepairCycle) {
  const auto dd = make_diffusing(RootedTree::balanced(7, 2), true);
  const Design& d = dd.design;
  auto inj = FaultInjector::periodic(
      std::make_shared<CorruptKProcesses>(2), 300, 3, 7);
  RandomDaemon daemon(23);
  Simulator sim(d.program, daemon);
  RunOptions opts;
  opts.max_steps = 50'000;
  opts.perturb = inj.hook(d.program);
  opts.track_violations = &d.invariant;
  opts.stop_when = [S = d.S(), &inj](const State& s) {
    return inj.faults_injected() == 3 && S(s);
  };
  const auto r = sim.run(d.program.initial_state(), opts);
  ASSERT_TRUE(r.converged);
  const auto& timeline = r.trace.violation_timeline();
  // The invariant was genuinely violated at some point, and repaired.
  std::size_t max_violations = 0;
  for (std::size_t v : timeline) max_violations = std::max(max_violations, v);
  EXPECT_GT(max_violations, 0u);
  EXPECT_EQ(timeline.back(), 0u);
}

// Daemon sweep: every converging design converges under every fair-ish
// daemon implementation.
TEST(IntegrationTest, DaemonSweep) {
  const auto dd = make_diffusing(RootedTree::balanced(6, 2), true);
  const Design& d = dd.design;
  Rng rng(137);
  const State start = d.program.random_state(rng);

  std::vector<DaemonPtr> daemons;
  daemons.push_back(std::make_unique<RandomDaemon>(1));
  daemons.push_back(std::make_unique<RoundRobinDaemon>());
  daemons.push_back(std::make_unique<FirstEnabledDaemon>());
  daemons.push_back(std::make_unique<AdversarialDaemon>(d.invariant, 2));
  daemons.push_back(std::make_unique<DistributedDaemon>(0.5, 3));
  daemons.push_back(std::make_unique<SynchronousDaemon>());
  daemons.push_back(std::make_unique<WeaklyFairDaemon>(
      std::make_unique<RandomDaemon>(4), 16));

  for (auto& daemon : daemons) {
    RunOptions opts;
    opts.max_steps = 100'000;
    const auto r = converge(d, start, *daemon, opts);
    EXPECT_TRUE(r.converged) << daemon->name();
  }
}

// The design workbench flow: validate_design picks a theorem for every
// protocol whose constraint graph supports one.
TEST(IntegrationTest, WorkbenchVerdictSummary) {
  struct Expectation {
    Design design;
    bool theorem_applies;
  };
  std::vector<Expectation> table;
  table.push_back(
      {make_running_example(RunningExampleVariant::kWriteYZ), true});
  table.push_back(
      {make_running_example(RunningExampleVariant::kWriteXBoth), false});
  table.push_back(
      {make_running_example(RunningExampleVariant::kDecreaseX), true});
  table.push_back({make_diffusing(RootedTree::star(4), false).design, true});
  table.push_back({make_leader_election(3).design, true});
  table.push_back({make_atomic_action(2).design, true});
  table.push_back(
      {make_spanning_tree(UndirectedGraph::cycle(4)).design, false});

  for (auto& e : table) {
    StateSpace space(e.design.program);
    const auto report = validate_design(e.design, space);
    EXPECT_EQ(report.applies, e.theorem_applies)
        << e.design.name << "\n"
        << format_report(report);
  }
}

}  // namespace
}  // namespace nonmask
