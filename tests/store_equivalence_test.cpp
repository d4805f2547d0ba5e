// The engine-vs-oracle contract (store/facade.hpp): every report the
// checker engine produces must be byte-identical to the serial dense
// checkers' in src/checker/, on every built-in protocol, at every thread
// count. Each report is rendered to text — counts, verdicts, and the full
// counterexample states — and the renderings are compared for closure(S),
// closure(T), unfair and weakly-fair convergence, the tolerance verdict,
// variant extraction, and capped and uncapped reachability, across 1/2/8
// worker threads. At one thread the convergence passes generate successors
// inside the traversal; at two and eight they read the parallel prefetch.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "checker/closure_check.hpp"
#include "checker/convergence_check.hpp"
#include "checker/fault_span.hpp"
#include "checker/state_space.hpp"
#include "checker/variant.hpp"
#include "core/candidate.hpp"
#include "obs/report.hpp"
#include "protocols/diffusing.hpp"
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

std::string render(const std::optional<VariantFunction>& v) {
  if (!v) return "no variant";
  std::ostringstream out;
  for (std::uint32_t d : v->raw()) out << d << ' ';
  return out.str();
}

std::string render(const StateSet& set) {
  std::ostringstream out;
  out << set.size() << ':';
  for (std::uint64_t code = 0; code < set.space().size(); ++code) {
    if (set.contains_code(code)) out << ' ' << code;
  }
  return out.str();
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

    const ToleranceReport engine = store::verify_tolerance_via(cfg, space, d);
    const ToleranceReport oracle = verify_tolerance(space, d);
    EXPECT_EQ(engine.S_closed, oracle.S_closed);
    EXPECT_EQ(engine.T_closed, oracle.T_closed);
    EXPECT_EQ(render(engine.convergence), render(oracle.convergence));
  }
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

// Variant extraction produces the same function (the raw per-state
// distance table) as the serial extraction, and the same "no variant
// exists" answer for a non-converging design.
TEST_P(BackendEquivalenceTest, VariantExtractionMatchesDense) {
  const unsigned threads = GetParam();
  const auto cfg = config_for(threads);
  for (const Design& d : builtins()) {
    SCOPED_TRACE(d.name + " variant @" + std::to_string(threads) + "t");
    const StateSpace space(d.program);
    EXPECT_EQ(render(store::compute_variant_via(cfg, space, d.S())),
              render(compute_variant(space, d.S())));
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
