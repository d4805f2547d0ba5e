// The golden round-trip: for every registry protocol, compile(emit(P))
// must reproduce the hand-coded Design declaration-for-declaration —
// same variables (names, domains, owners, order), same actions (names,
// kinds, constraint ids, read sets, and transition semantics on sampled
// states), same constraint decomposition — and the checker reports for the
// spec-born design must be BYTE-identical to the hand-coded ones at 1, 2,
// and 8 threads. This is the contract that lets a spec job stand in for
// the C++ path. Both forms of every protocol must also reach the same
// certificate, and declare honest supports and read sets.
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checker/state_space.hpp"
#include "core/candidate.hpp"
#include "obs/report.hpp"
#include "parallel/campaign.hpp"
#include "spec/compile.hpp"
#include "spec/emit.hpp"
#include "spec/registry.hpp"
#include "store/config.hpp"
#include "store/facade.hpp"
#include "synth/certify_design.hpp"

namespace nonmask {
namespace {

using spec::CompiledSpec;
using spec::RegistryEntry;
using spec::compile_spec_text;
using spec::emit_builtin_spec;
using spec::find_protocol;
using spec::registry;

std::vector<std::uint32_t> indices(const std::vector<VarId>& ids) {
  std::vector<std::uint32_t> out;
  out.reserve(ids.size());
  for (VarId id : ids) out.push_back(id.index());
  return out;
}

/// Uniform random in-domain states, fixed seed: the semantic sample.
std::vector<State> sample_states(const Program& p, std::size_t count) {
  std::mt19937_64 rng(0xBEEFu);
  std::vector<State> out;
  for (std::size_t i = 0; i < count; ++i) {
    State s(p.num_variables());
    for (std::size_t v = 0; v < p.num_variables(); ++v) {
      const VariableSpec& spec = p.variable(VarId(static_cast<unsigned>(v)));
      std::uniform_int_distribution<long long> dist(spec.lo, spec.hi);
      s.set(VarId(static_cast<unsigned>(v)),
            static_cast<Value>(dist(rng)));
    }
    out.push_back(std::move(s));
  }
  return out;
}

void expect_structurally_equal(const Design& got, const Design& want,
                               const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(got.program.name(), want.program.name());
  ASSERT_EQ(got.program.num_variables(), want.program.num_variables());
  for (std::size_t v = 0; v < want.program.num_variables(); ++v) {
    const auto& gv = got.program.variable(VarId(static_cast<unsigned>(v)));
    const auto& wv = want.program.variable(VarId(static_cast<unsigned>(v)));
    EXPECT_EQ(gv.name, wv.name) << "variable " << v;
    EXPECT_EQ(gv.lo, wv.lo) << gv.name;
    EXPECT_EQ(gv.hi, wv.hi) << gv.name;
    EXPECT_EQ(gv.process, wv.process) << gv.name;
  }
  ASSERT_EQ(got.program.num_actions(), want.program.num_actions());
  for (std::size_t a = 0; a < want.program.num_actions(); ++a) {
    const Action& ga = got.program.action(a);
    const Action& wa = want.program.action(a);
    EXPECT_EQ(ga.name(), wa.name()) << "action " << a;
    EXPECT_EQ(ga.kind(), wa.kind()) << ga.name();
    EXPECT_EQ(ga.constraint_id(), wa.constraint_id()) << ga.name();
    EXPECT_EQ(indices(ga.reads()), indices(wa.reads())) << ga.name();
  }
  ASSERT_EQ(got.invariant.size(), want.invariant.size());
  for (std::size_t c = 0; c < want.invariant.size(); ++c) {
    EXPECT_EQ(got.invariant.at(c).name, want.invariant.at(c).name)
        << "constraint " << c;
    EXPECT_EQ(indices(got.invariant.at(c).support),
              indices(want.invariant.at(c).support))
        << got.invariant.at(c).name;
  }
  EXPECT_EQ(got.stabilizing, want.stabilizing);
}

void expect_semantically_equal(const Design& got, const Design& want,
                               const std::string& label) {
  SCOPED_TRACE(label);
  const auto S_got = got.S();
  const auto S_want = want.S();
  const auto T_got = got.T();
  const auto T_want = want.T();
  for (const State& s : sample_states(want.program, 200)) {
    EXPECT_EQ(S_got(s), S_want(s));
    EXPECT_EQ(T_got(s), T_want(s));
    for (std::size_t c = 0; c < want.invariant.size(); ++c) {
      EXPECT_EQ(got.invariant.at(c).holds(s), want.invariant.at(c).holds(s))
          << want.invariant.at(c).name;
    }
    for (std::size_t a = 0; a < want.program.num_actions(); ++a) {
      const Action& ga = got.program.action(a);
      const Action& wa = want.program.action(a);
      ASSERT_EQ(ga.enabled(s), wa.enabled(s)) << wa.name();
      if (wa.enabled(s)) {
        EXPECT_EQ(ga.apply(s), wa.apply(s)) << wa.name();
      }
    }
  }
}

TEST(SpecRoundtripTest, EveryRegistryEntryRoundTripsStructurally) {
  ASSERT_FALSE(registry().empty());
  for (const RegistryEntry& entry : registry()) {
    const CompiledSpec cs = compile_spec_text(emit_builtin_spec(entry.name));
    const Design hand = entry.make();
    expect_structurally_equal(cs.design, hand, entry.name);
    expect_semantically_equal(cs.design, hand, entry.name);
  }
}

TEST(SpecRoundtripTest, FindProtocolResolvesEveryEntry) {
  for (const RegistryEntry& entry : registry()) {
    const RegistryEntry* found = find_protocol(entry.name);
    ASSERT_NE(found, nullptr) << entry.name;
    EXPECT_EQ(found->name, entry.name);
  }
  EXPECT_EQ(find_protocol("no-such-protocol"), nullptr);
  EXPECT_THROW(emit_builtin_spec("no-such-protocol"), std::invalid_argument);
}

// The certification cascade (Theorems 1-3, then the exhaustive checker)
// picks the same method by the same attempts for the hand-coded and the
// spec-born design, with a clean audit, and the method is the one
// committed here for each protocol.
TEST(SpecRoundtripTest, EveryRegistryEntryCertifiesTheSameWay) {
  const std::map<std::string, std::string> theorem_method = {
      {"running-example-write-y-z", "theorem 1"},
      {"diffusing-computation-separated", "theorem 1"},
      {"atomic-action", "theorem 1"},
      {"tree-aggregation", "theorem 1"},
      {"running-example-decrease-x", "theorem 2"},
      {"ring-leader-election", "theorem 2"},
      {"tmr-masking", "theorem 2"},
      {"tmr-nonmasking", "theorem 2"},
      {"stabilizing-coloring", "theorem 3"},
  };
  for (const RegistryEntry& entry : registry()) {
    SCOPED_TRACE(entry.name);
    const CompiledSpec cs = compile_spec_text(emit_builtin_spec(entry.name));
    const Design hand = entry.make();
    const StateSpace space_spec(cs.design.program);
    const StateSpace space_hand(hand.program);
    const auto spec_cert = synth::certify_design(cs.design, space_spec);
    const auto hand_cert = synth::certify_design(hand, space_hand);
    EXPECT_EQ(spec_cert.method, hand_cert.method);
    EXPECT_EQ(spec_cert.attempts, hand_cert.attempts);
    EXPECT_TRUE(spec_cert.audit_problems.empty());
    EXPECT_TRUE(hand_cert.audit_problems.empty());
    const auto it = theorem_method.find(entry.name);
    EXPECT_EQ(synth::to_string(hand_cert.method),
              it == theorem_method.end() ? "exhaustive checker" : it->second);
  }
}

/// `s` with every variable outside `keep` set to its domain's lower bound.
void project_into(const Program& p, const State& s,
                  const std::vector<bool>& keep, State& out) {
  out = s;
  for (std::uint32_t v = 0; v < p.num_variables(); ++v) {
    if (!keep[v]) out.set(VarId(v), p.variable(VarId(v)).lo);
  }
}

std::vector<bool> mask_of(const Program& p, const std::vector<VarId>& vars) {
  std::vector<bool> keep(p.num_variables(), false);
  for (VarId v : vars) keep[v.index()] = true;
  return keep;
}

/// A declared support or read set is honest when the value it describes
/// does not change as every variable outside the set moves to its lower
/// bound: each constraint's truth, each guard's truth, and each written
/// variable's new value, checked at every state of the design's space. A
/// statement may leave a variable it writes unchanged without reading it
/// (distributed reset's conditional `app.j := 0` does not read app.j), so
/// a written variable whose value the statement keeps in both states is
/// no evidence of a missing read.
void expect_supports_honest(const Design& d, const std::string& label) {
  SCOPED_TRACE(label);
  const Program& p = d.program;
  const StateSpace space(p);
  std::vector<std::vector<bool>> support_masks, read_masks;
  for (std::size_t c = 0; c < d.invariant.size(); ++c) {
    support_masks.push_back(mask_of(p, d.invariant.at(c).support));
  }
  for (const Action& a : p.actions()) read_masks.push_back(mask_of(p, a.reads()));

  State s(p.num_variables());
  State t(p.num_variables());
  State next_s, next_t;
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    space.decode_into(code, s);
    for (std::size_t c = 0; c < d.invariant.size(); ++c) {
      const Constraint& constraint = d.invariant.at(c);
      project_into(p, s, support_masks[c], t);
      ASSERT_EQ(constraint.fn(s), constraint.fn(t))
          << "constraint '" << constraint.name << "' reads outside its "
          << "support at state code " << code;
    }
    for (std::size_t i = 0; i < p.num_actions(); ++i) {
      const Action& a = p.action(i);
      project_into(p, s, read_masks[i], t);
      const bool enabled = a.enabled(s);
      ASSERT_EQ(enabled, a.enabled(t))
          << "guard of '" << a.name() << "' reads outside its read set at "
          << "state code " << code;
      if (!enabled) continue;
      a.apply_into(s, next_s);
      a.apply_into(t, next_t);
      for (VarId w : a.writes()) {
        if (next_s.get(w) == next_t.get(w)) continue;
        const bool kept = next_s.get(w) == s.get(w) && next_t.get(w) == t.get(w);
        ASSERT_TRUE(kept) << "statement of '" << a.name()
                          << "' reads outside its read set to write '"
                          << p.variable(w).name << "' at state code " << code;
      }
    }
  }
}

TEST(SpecRoundtripTest, EveryRegistryEntryDeclaresHonestSupportsAndReads) {
  for (const RegistryEntry& entry : registry()) {
    expect_supports_honest(entry.make(), entry.name + " (factory)");
    expect_supports_honest(
        compile_spec_text(emit_builtin_spec(entry.name)).design,
        entry.name + " (spec)");
  }
}

// Exhaustive checker byte-identity. The smaller protocols run the full
// closure(S) + closure(T) + convergence battery at 1, 2, and 8 threads;
// the reports must serialize to the same bytes as the hand-coded design's.
void expect_reports_identical(const std::string& name) {
  SCOPED_TRACE(name);
  const RegistryEntry* entry = find_protocol(name);
  ASSERT_NE(entry, nullptr);
  const CompiledSpec cs = compile_spec_text(emit_builtin_spec(name));
  const Design hand = entry->make();
  const StateSpace space_spec(cs.design.program);
  const StateSpace space_hand(hand.program);
  ASSERT_EQ(space_spec.size(), space_hand.size());
  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    store::StoreConfig config;
    config.threads = threads;
    const std::string closure_s_spec = obs::to_json(
        store::check_closed_via(config, space_spec, cs.design.S()));
    const std::string closure_s_hand =
        obs::to_json(store::check_closed_via(config, space_hand, hand.S()));
    EXPECT_EQ(closure_s_spec, closure_s_hand);
    const std::string closure_t_spec = obs::to_json(
        store::check_closed_via(config, space_spec, cs.design.T()));
    const std::string closure_t_hand =
        obs::to_json(store::check_closed_via(config, space_hand, hand.T()));
    EXPECT_EQ(closure_t_spec, closure_t_hand);
    const std::string conv_spec = obs::to_json(store::check_convergence_via(
        config, space_spec, cs.design.S(), cs.design.T()));
    const std::string conv_hand = obs::to_json(store::check_convergence_via(
        config, space_hand, hand.S(), hand.T()));
    EXPECT_EQ(conv_spec, conv_hand);
  }
}

TEST(SpecRoundtripTest, TokenRingReportsByteIdentical) {
  expect_reports_identical("token-ring");
  expect_reports_identical("token-ring-layered");
}

TEST(SpecRoundtripTest, DijkstraReportsByteIdentical) {
  expect_reports_identical("dijkstra-k-state-ring");
  expect_reports_identical("dijkstra-three-state");
  expect_reports_identical("dijkstra-four-state");
}

TEST(SpecRoundtripTest, TreeProtocolReportsByteIdentical) {
  expect_reports_identical("bfs-spanning-tree");
  expect_reports_identical("tree-aggregation");
  expect_reports_identical("distributed-reset");
}

TEST(SpecRoundtripTest, GraphProtocolReportsByteIdentical) {
  expect_reports_identical("stabilizing-coloring");
  expect_reports_identical("hsu-huang-matching");
  expect_reports_identical("maximal-independent-set");
  expect_reports_identical("ring-leader-election");
}

TEST(SpecRoundtripTest, SmallProtocolReportsByteIdentical) {
  expect_reports_identical("running-example-decrease-x");
  expect_reports_identical("atomic-action");
  expect_reports_identical("tmr-nonmasking");
}

// Campaign aggregates (the statistical path: random starts, random daemon,
// per-trial seed derivation) must also be byte-identical, at every thread
// count. This is what makes a spec campaign job a drop-in replacement for
// the hand-coded parallel_campaign run.
TEST(SpecRoundtripTest, TokenRingCampaignAggregateByteIdentical) {
  const RegistryEntry* entry = find_protocol("token-ring");
  ASSERT_NE(entry, nullptr);
  const CompiledSpec cs = compile_spec_text(emit_builtin_spec("token-ring"));
  const Design hand = entry->make();
  ConvergenceExperiment config;
  config.trials = 40;
  config.seed = 9;
  config.max_steps = 100000;
  std::string baseline;
  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CampaignOptions opts;
    opts.threads = threads;
    const CampaignResults spec_results = run_campaign(cs.design, config, opts);
    const CampaignResults hand_results = run_campaign(hand, config, opts);
    const std::string spec_json = obs::to_json(spec_results.aggregate);
    EXPECT_EQ(spec_json, obs::to_json(hand_results.aggregate));
    if (baseline.empty()) {
      baseline = spec_json;
    } else {
      EXPECT_EQ(spec_json, baseline);  // thread-count invariance
    }
  }
}

}  // namespace
}  // namespace nonmask
