// The engine-vs-oracle contract (store/facade.hpp): every report the
// checker engine produces must be byte-identical to the serial dense
// checkers' in src/checker/, on every built-in protocol, at every thread
// count. Each report is rendered to text — counts, verdicts, and the full
// counterexample states — and the renderings are compared for closure(S),
// closure(T), unfair and weakly-fair convergence, the tolerance verdict,
// and capped and uncapped reachability, across 1/2/8 worker threads. At one thread the convergence passes generate successors
// inside the traversal; at two and eight they read the parallel prefetch.
// The single-pass tolerance check renders byte-identical to the oracle's
// three separate reports, also on designs that drive each of its fallbacks
// to the closure-of-T scan.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "checker/closure_check.hpp"
#include "checker/convergence_check.hpp"
#include "checker/fault_span.hpp"
#include "checker/state_space.hpp"
#include "core/builder.hpp"
#include "core/candidate.hpp"
#include "fuzz_case.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/report.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/token_ring.hpp"
#include "spec/registry.hpp"
#include "store/facade.hpp"

namespace nonmask {
namespace {

store::StoreConfig config_for(unsigned threads) {
  store::StoreConfig cfg;
  cfg.threads = threads;
  cfg.grain = 128;  // small grain: tiny spaces still span several chunks
  return cfg;
}

std::string render(const State& s) {
  std::string out = "(";
  for (std::size_t i = 0; i < s.values().size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(s.values()[i]);
  }
  return out + ")";
}

std::string render(const ClosureReport& r) {
  std::string out = obs::to_json(r);
  if (r.violation) {
    out += " violation " + render(r.violation->state) + " action " +
           std::to_string(r.violation->action) + " -> " +
           render(r.violation->successor);
  }
  return out;
}

std::string render(const ConvergenceReport& r) {
  std::string out = obs::to_json(r);
  if (r.cycle) {
    out += " cycle";
    for (const State& s : *r.cycle) out += " " + render(s);
  }
  if (r.deadlock) out += " deadlock " + render(*r.deadlock);
  return out;
}

std::string render(const StateSet& set) {
  std::ostringstream out;
  out << set.size() << ':';
  for (std::uint64_t code = 0; code < set.space().size(); ++code) {
    if (set.contains_code(code)) out << ' ' << code;
  }
  return out.str();
}

std::string render(const ToleranceReport& r) {
  return render(r.closure_S) + " | " + render(r.closure_T) + " | " +
         render(r.convergence);
}

/// The oracle's closure of S, closure of T, and convergence, each run on
/// its own, in the single-pass report's rendering.
std::string oracle_tolerance(const StateSpace& space, const Design& d,
                             bool weakly_fair) {
  ToleranceReport r;
  r.closure_S = check_closed(space, d.S());
  r.closure_T = check_closed(space, d.T());
  r.convergence = weakly_fair
                      ? check_convergence_weakly_fair(space, d.S(), d.T())
                      : check_convergence(space, d.S(), d.T());
  return render(r);
}

/// Every registry protocol at its fixed instance size.
std::vector<Design> builtins() {
  std::vector<Design> out;
  for (const spec::RegistryEntry& entry : spec::registry()) {
    out.push_back(entry.make());
  }
  return out;
}

class BackendEquivalenceTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BackendEquivalenceTest, AllReportsByteIdentical) {
  const unsigned threads = GetParam();
  const auto cfg = config_for(threads);
  const auto designs = builtins();
  ASSERT_EQ(designs.size(), 21u);
  for (const Design& d : designs) {
    SCOPED_TRACE(d.name + " @" + std::to_string(threads) + "t");
    const StateSpace space(d.program);
    EXPECT_EQ(render(store::check_closed_via(cfg, space, d.S())),
              render(check_closed(space, d.S())));
    EXPECT_EQ(render(store::check_closed_via(cfg, space, d.T())),
              render(check_closed(space, d.T())));
    EXPECT_EQ(render(store::check_convergence_via(cfg, space, d.S(), d.T())),
              render(check_convergence(space, d.S(), d.T())));

    const auto faults = d.program.actions_of_kind(ActionKind::kFault);
    EXPECT_EQ(render(store::compute_fault_span_via(cfg, space, d.S(), faults)),
              render(compute_fault_span(space, d.S(), faults)));

    EXPECT_EQ(render(store::verify_tolerance_via(cfg, space, d)),
              render(verify_tolerance(space, d)));
  }
}

// The single-pass check against the oracle's three passes, unfair and
// weakly fair, on every built-in and every fuzzed design.
TEST_P(BackendEquivalenceTest, ToleranceMatchesOracle) {
  const unsigned threads = GetParam();
  const auto cfg = config_for(threads);
  std::vector<Design> designs = builtins();
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    designs.push_back(make_fuzz_case(seed).design);
  }
  for (const Design& d : designs) {
    const StateSpace space(d.program);
    for (const bool fair : {false, true}) {
      SCOPED_TRACE(d.name + (fair ? " fair @" : " @") +
                   std::to_string(threads) + "t");
      EXPECT_EQ(render(store::verify_tolerance_via(cfg, space, d, fair)),
                oracle_tolerance(space, d, fair));
    }
  }
}

/// x in [0, 3] with S = (x == 0) and T = (x <= t_max), one closure action
/// `x == from -> x := to` per move, and a free y in [0, 63] so the space of
/// 256 codes spans two chunks.
Design counter_design(const std::string& name, Value t_max,
                      const std::vector<std::pair<Value, Value>>& moves) {
  ProgramBuilder b(name);
  const VarId x = b.var("x", 0, 3);
  b.var("y", 0, 63);
  for (const auto& [from, to] : moves) {
    b.closure(
        std::to_string(from) + "->" + std::to_string(to),
        [x, from = from](const State& s) { return s.get(x) == from; },
        [x, to = to](State& s) { s.set(x, to); }, {x}, {x});
  }
  Design d;
  d.name = name;
  d.program = b.build();
  d.S_override = [x](const State& s) { return s.get(x) == 0; };
  d.fault_span = [x, t_max](const State& s) { return s.get(x) <= t_max; };
  return d;
}

// Designs where the tally cannot stand in for the closure-of-T scan, or
// stands in with T != true: each report still matches the oracle's.
TEST_P(BackendEquivalenceTest, ToleranceFallbacksMatchOracle) {
  const unsigned threads = GetParam();
  const auto cfg = config_for(threads);

  // S not closed: x != y is broken by write-x-both's fix-leq.
  Design s_open = spec::find_protocol("running-example-write-x-both")->make();
  const VarId x = s_open.program.find_variable("x");
  const VarId y = s_open.program.find_variable("y");
  s_open.S_override = [x, y](const State& s) { return s.get(x) != s.get(y); };

  std::vector<Design> designs;
  designs.push_back(std::move(s_open));
  // T left from an S ∧ T state (0 -> 2), converging from T.
  designs.push_back(counter_design("T-leaves-from-S", 1, {{0, 2}, {1, 0}}));
  // T left from a T ∧ ¬S state (1 -> 3), converging from T.
  designs.push_back(
      counter_design("T-leaves-outside-S", 1, {{1, 0}, {1, 3}, {3, 0}}));
  // T closed, a cycle 1 <-> 2 outside S.
  designs.push_back(counter_design("cycle", 3, {{1, 2}, {2, 1}, {3, 0}}));
  // T closed, a deadlock at x == 1.
  designs.push_back(counter_design("deadlock", 3, {{2, 0}, {3, 0}}));
  // T closed and not true, converging: the tally stands in.
  designs.push_back(
      counter_design("T-closed", 2, {{1, 0}, {2, 1}, {3, 2}}));

  for (const Design& d : designs) {
    const StateSpace space(d.program);
    for (const bool fair : {false, true}) {
      SCOPED_TRACE(d.name + (fair ? " fair @" : " @") +
                   std::to_string(threads) + "t");
      EXPECT_EQ(render(store::verify_tolerance_via(cfg, space, d, fair)),
                oracle_tolerance(space, d, fair));
    }
  }
}

/// x in [0, length] counting down to S = (x == 0), T = true: its longest
/// path to S, `length` steps, is the DFS's deepest distance.
Design countdown(Value length) {
  ProgramBuilder b("countdown");
  const VarId x = b.var("x", 0, length);
  b.closure(
      "step", [x](const State& s) { return s.get(x) > 0; },
      [x](State& s) { s.set(x, s.get(x) - 1); }, {x}, {x});
  Design d;
  d.name = "countdown";
  d.program = b.build();
  d.S_override = [x](const State& s) { return s.get(x) == 0; };
  return d;
}

// A distance past 65535 restarts the unfair DFS with 32-bit distances; the
// restart's tally replaces the first attempt's instead of adding to it.
TEST_P(BackendEquivalenceTest, ToleranceRestartsPastU16Distances) {
  const Design d = countdown(70000);
  const StateSpace space(d.program);
  const ToleranceReport engine =
      store::verify_tolerance_via(config_for(GetParam()), space, d);
  EXPECT_EQ(engine.convergence.max_steps_to_S, 70000u);
  EXPECT_EQ(render(engine), oracle_tolerance(space, d, false));
}

// The accounting identity: a converging check with S ⊆ T and T closed
// expands each T state once — the S sweep its S codes, the traversal its
// T ∧ ¬S region — so the explored-states counter grows by exactly
// states_in_T. A fallback to the closure-of-T scan, or a restart that
// counted its replayed states again, would break it.
TEST_P(BackendEquivalenceTest, ToleranceExploresEachTStateOnce) {
  const unsigned threads = GetParam();
  const auto cfg = config_for(threads);
  std::vector<Design> designs;
  designs.push_back(make_dijkstra_ring(6, 8).design);
  designs.push_back(make_diffusing(RootedTree::balanced(7, 2), true).design);
  designs.push_back(countdown(70000));
  obs::Metrics::set_enabled(true);
  for (const Design& d : designs) {
    const StateSpace space(d.program);
    for (const bool fair : {false, true}) {
      SCOPED_TRACE(d.name + (fair ? " fair @" : " @") +
                   std::to_string(threads) + "t");
      const std::uint64_t before = obs::explored_states()->value();
      const ToleranceReport r =
          store::verify_tolerance_via(cfg, space, d, fair);
      EXPECT_TRUE(r.tolerant());
      EXPECT_EQ(obs::explored_states()->value() - before,
                r.convergence.states_in_T);
    }
  }
  obs::Metrics::set_enabled(false);
}

// A closure violation's (state, action, successor) triple is the first in
// code order at any thread count: x != y alone is not closed under the
// write-x-both variant (fix-leq sets x := z, which can land on y).
TEST_P(BackendEquivalenceTest, ClosureViolationMatchesOracle) {
  const Design d = spec::find_protocol("running-example-write-x-both")->make();
  const StateSpace space(d.program);
  const VarId x = d.program.find_variable("x");
  const VarId y = d.program.find_variable("y");
  const PredicateFn only_first = [x, y](const State& s) {
    return s.get(x) != s.get(y);
  };
  const ClosureReport oracle = check_closed(space, only_first);
  ASSERT_FALSE(oracle.closed);
  EXPECT_EQ(render(store::check_closed_via(config_for(GetParam()), space,
                                           only_first)),
            render(oracle));
}

// A capped reachability run truncates at the same state as the serial BFS
// — the cap is part of the determinism contract, not best-effort. The cap
// is set to half the uncapped result so every protocol truncates mid-BFS.
TEST_P(BackendEquivalenceTest, CappedReachabilityTruncatesIdentically) {
  const unsigned threads = GetParam();
  const auto cfg = config_for(threads);
  for (const Design& d : builtins()) {
    SCOPED_TRACE(d.name + " @" + std::to_string(threads) + "t");
    const StateSpace space(d.program);
    std::vector<std::size_t> actions = non_fault_actions(d.program);
    const auto faults = d.program.actions_of_kind(ActionKind::kFault);
    actions.insert(actions.end(), faults.begin(), faults.end());
    const StateSet full = compute_reachable(space, d.S(), actions);
    FaultSpanOptions opts;
    opts.max_states = full.size() / 2 + 1;
    EXPECT_EQ(
        render(store::compute_reachable_via(cfg, space, d.S(), actions, opts)),
        render(compute_reachable(space, d.S(), actions, opts)));
  }
}

// The weakly-fair (Tarjan/SCC) pass reproduces the oracle byte for byte,
// including closed-SCC cycle counterexamples, fairness-rescued designs
// (the unfair check is kViolated but the SCC escape analysis proves
// convergence), and the environment variant's many two-state SCCs, whose
// component ids live in dead lowlink slots.
TEST_P(BackendEquivalenceTest, WeaklyFairReportsByteIdentical) {
  const unsigned threads = GetParam();
  const auto cfg = config_for(threads);
  for (const Design& d : builtins()) {
    SCOPED_TRACE(d.name + " fair @" + std::to_string(threads) + "t");
    const StateSpace space(d.program);
    EXPECT_EQ(render(store::check_convergence_weakly_fair_via(cfg, space,
                                                              d.S(), d.T())),
              render(check_convergence_weakly_fair(space, d.S(), d.T())));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BackendEquivalenceTest,
                         ::testing::Values(1u, 2u, 8u));

TEST(EngineBudgetTest, StateSpaceTooLargeBoundary) {
  const auto dd = make_diffusing(RootedTree::balanced(7, 2), true);
  const auto count = dd.design.program.state_count();
  ASSERT_TRUE(count.has_value());
  // Exactly at budget: constructible and checkable.
  StateSpace exact(dd.design.program, *count);
  EXPECT_TRUE(
      store::check_closed_via(config_for(2), exact, dd.design.S()).closed);
  // One below budget: construction throws before any pass runs.
  try {
    StateSpace too_small(dd.design.program, *count - 1);
    FAIL() << "expected StateSpaceTooLarge";
  } catch (const StateSpaceTooLarge& e) {
    EXPECT_EQ(e.requested(), *count);
    EXPECT_EQ(e.budget(), *count - 1);
  }
}

}  // namespace
}  // namespace nonmask
