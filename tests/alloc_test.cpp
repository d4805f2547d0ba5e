// Heap-allocation counts of the checker engine's hot paths. The exact
// checks build every successor in a scratch state their caller owns, and
// the DFS and Tarjan stacks keep their buffers across pushes, so a pass
// allocates per chunk and per stack depth, never per state.
//
// This file replaces the global operator new to count calls, so it builds
// into its own test executable, apart from nonmask_tests.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "checker/convergence_check.hpp"
#include "checker/falsify.hpp"
#include "checker/preserves.hpp"
#include "checker/state_space.hpp"
#include "core/builder.hpp"
#include "protocols/token_ring.hpp"
#include "spec/compile.hpp"
#include "spec/expr.hpp"
#include "store/facade.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nonmask {
namespace {

/// Heap allocations made while running `f`.
template <class F>
std::uint64_t allocations_during(F&& f) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Allocations allowed to one pass over the ring's 262,144 states. Each
/// pass used to allocate one successor per enabled action, over a million
/// times; what remains is setup, one scratch state per chunk and one
/// buffer per new stack depth.
constexpr std::uint64_t kPassBound = 250;

/// The 6x8 Dijkstra K-state ring as a spec; the same design as
/// make_dijkstra_ring(6, 8).
constexpr const char* kRingSpec = R"({
  "schema": "nonmask-spec/1",
  "name": "dijkstra-k-state-ring",
  "params": {"K": 8},
  "topology": {"kind": "ring", "n": 6},
  "variables": [
    {"name": "x", "per": "process", "min": 0, "max": "K - 1"}
  ],
  "constraints": [
    {"name": "agree.{j}", "per": "process", "where": "j > 0",
     "expr": "x[j] == x[j - 1]"}
  ],
  "actions": [
    {"name": "advance@0", "kind": "closure", "process": "0",
     "guard": "x[0] == x[n - 1]", "assign": {"x[0]": "(x[0] + 1) % K"}},
    {"name": "adopt@{j}", "kind": "closure", "per": "process",
     "where": "j > 0", "guard": "x[j] != x[j - 1]",
     "assign": {"x[j]": "x[j - 1]"}}
  ],
  "s_override": "(x[0] == x[n - 1] ? 1 : 0) + sum(j : range(1, n), x[j] != x[j - 1] ? 1 : 0) == 1"
})";

struct Ring {
  const char* front_end;
  Design design;
};

std::vector<Ring> rings() {
  std::vector<Ring> out;
  out.push_back({"native", make_dijkstra_ring(6, 8).design});
  // Every guard and constraint of the spec ring, and each term of its S,
  // evaluates by footprint-table lookup, and every action's successor code
  // comes from its successor table, so the bounds below cover the tables,
  // their one fill included.
  const spec::CompiledSpec ring = spec::compile_spec_text(kRingSpec);
  EXPECT_EQ(ring.tables->size(), 18u);
  for (const Action& a : ring.design.program.actions()) {
    EXPECT_NE(a.successor_table(), nullptr) << a.name();
  }
  out.push_back({"spec", ring.design});
  return out;
}

store::StoreConfig one_thread() {
  store::StoreConfig config;
  config.threads = 1;
  return config;
}

TEST(EngineAllocationTest, ClosurePassesAllocateBoundedTimes) {
  const store::StoreConfig config = one_thread();
  for (const Ring& ring : rings()) {
    SCOPED_TRACE(ring.front_end);
    const StateSpace space(ring.design.program);
    ASSERT_EQ(space.size(), 262144u);
    const PredicateFn S = ring.design.S();
    const PredicateFn T = ring.design.T();
    bool S_closed = false;
    bool T_closed = false;
    EXPECT_LE(allocations_during([&] {
                S_closed = store::check_closed_via(config, space, S).closed;
              }),
              kPassBound);
    EXPECT_LE(allocations_during([&] {
                T_closed = store::check_closed_via(config, space, T).closed;
              }),
              kPassBound);
    EXPECT_TRUE(S_closed);
    EXPECT_TRUE(T_closed);
  }
}

TEST(EngineAllocationTest, ConvergencePassesAllocateBoundedTimes) {
  const store::StoreConfig config = one_thread();
  for (const Ring& ring : rings()) {
    SCOPED_TRACE(ring.front_end);
    const StateSpace space(ring.design.program);
    const PredicateFn S = ring.design.S();
    const PredicateFn T = ring.design.T();
    ConvergenceVerdict unfair = ConvergenceVerdict::kUnknown;
    ConvergenceVerdict fair = ConvergenceVerdict::kUnknown;
    EXPECT_LE(allocations_during([&] {
                unfair =
                    store::check_convergence_via(config, space, S, T).verdict;
              }),
              kPassBound);
    EXPECT_LE(allocations_during([&] {
                fair = store::check_convergence_weakly_fair_via(config, space,
                                                                S, T)
                           .verdict;
              }),
              kPassBound);
    EXPECT_EQ(unfair, ConvergenceVerdict::kConverges);
    EXPECT_EQ(fair, ConvergenceVerdict::kConverges);
  }
}

// On the spec ring the first call fills the successor tables; every
// lookup after it allocates nothing.
TEST(EngineAllocationTest, ProgramSuccessorsAllocatesNothingAfterItsFirstCall) {
  for (const Ring& ring : rings()) {
    SCOPED_TRACE(ring.front_end);
    const StateSpace space(ring.design.program);
    const std::vector<std::size_t> actions =
        non_fault_actions(ring.design.program);
    ProgramSuccessors succ(space, actions);
    std::vector<std::uint64_t> out;
    out.reserve(actions.size());  // room for any state's successors
    succ.successors(0, out);
    std::uint64_t transitions = 0;
    EXPECT_EQ(allocations_during([&] {
                for (std::uint64_t code = 0; code < space.size(); ++code) {
                  succ.successors(code, out);
                  transitions += out.size();
                }
              }),
              0u);
    EXPECT_GT(transitions, space.size());
  }
}

// An obligation scan builds every successor in one scratch state, so it
// allocates a bounded number of times however many states it checks. Each
// scan here is the Theorem 1-3 design obligation "action a preserves the
// fault-span T": every state where a is enabled is a hypothesis state.
// When each of those heap-copied its successor, a scan allocated 32,769
// times (advance@0) and 229,377 times (each adopt@j); now it takes 2 (4
// for the scan that fills the spec ring's tables).
TEST(EngineAllocationTest, ObligationScansAllocateBoundedTimes) {
  for (const Ring& ring : rings()) {
    SCOPED_TRACE(ring.front_end);
    const StateSpace space(ring.design.program);
    const PredicateFn T = ring.design.T();
    for (const Action& a : ring.design.program.actions()) {
      SCOPED_TRACE(a.name());
      bool preserves = false;
      EXPECT_LE(allocations_during([&] {
                  preserves = check_preserves(space, a, T).preserves;
                }),
                kPassBound);
      EXPECT_TRUE(preserves);
    }
  }
}

// Falsification walks keep their enabled-action buffer and path across
// steps and walks, so a walk allocates for its visited-state set and start
// state, not per step. On a counter that no walk of these lengths leaves
// (x in [0, 99999], `x != 99999 -> x := x + 1`, S = (x == 99999)), 50 walks
// allocated 21,345 times at 200 steps and 196,134 at 2,000 when every step
// took a fresh enabled vector and path entry.
TEST(EngineAllocationTest, FalsifyWalksAllocatePerWalkNotPerStep) {
  ProgramBuilder b("counter");
  const VarId x = b.var("x", 0, 99999);
  b.closure(
      "increment", [x](const State& s) { return s.get(x) != 99999; },
      [x](State& s) { s.set(x, s.get(x) + 1); }, {x}, {x});
  Design d;
  d.name = "counter";
  d.program = b.build();
  d.S_override = [x](const State& s) { return s.get(x) == 99999; };

  const std::pair<std::uint64_t, std::uint64_t> cases[] = {{200, 1000},
                                                           {2000, 5000}};
  for (const auto& [length, bound] : cases) {
    SCOPED_TRACE("walk_length " + std::to_string(length));
    FalsifyOptions opts;
    opts.walks = 50;
    opts.max_walk_length = length;
    opts.seed = 1;
    FalsifyResult result;
    EXPECT_LE(allocations_during(
                  [&] { result = falsify_convergence(d, opts); }),
              bound);
    EXPECT_FALSE(result.violated);
    EXPECT_EQ(result.walks_run, 50u);
  }
}

// The synthesizer's bounded probe keeps each DFS frame's State and enabled
// buffer across pops and builds successors in one scratch State, so it
// allocates per depth it reaches, not per step. On a 64x64 grid climbed
// one coordinate at a time (S = the far corner), the probe visits 4,095
// states over 8,064 steps with never more than 126 frames on its stack; it
// allocated 16,163 times when every step heap-copied its successor and
// every push took a fresh enabled vector, and 412 times since.
TEST(EngineAllocationTest, ProbeAllocatesPerDepthNotPerStep) {
  ProgramBuilder b("grid");
  const VarId x = b.var("x", 0, 63);
  const VarId y = b.var("y", 0, 63);
  for (const VarId v : {x, y}) {
    b.closure(
        "climb", [v](const State& s) { return s.get(v) != 63; },
        [v](State& s) { s.set(v, s.get(v) + 1); }, {v}, {v});
  }
  Design d;
  d.name = "grid";
  d.program = b.build();
  d.S_override = [x, y](const State& s) {
    return s.get(x) == 63 && s.get(y) == 63;
  };

  const State start = d.program.initial_state();
  FalsifyResult result;
  EXPECT_LE(allocations_during(
                [&] { result = probe_violation_from(d, start); }),
            1000u);
  EXPECT_FALSE(result.violated);
  EXPECT_EQ(result.steps_taken, 8064u);
}

TEST(EngineAllocationTest, CompiledMexOfEightArgumentsAllocatesNothing) {
  Program p("mex");
  std::unordered_map<std::string, std::vector<VarId>> families;
  std::vector<VarId>& v = families["v"];
  for (int i = 0; i < 8; ++i) {
    v.push_back(p.add_variable(VariableSpec("v." + std::to_string(i), -1, 9)));
  }
  std::unordered_map<std::string, long long> params;
  spec::CompileEnv env;
  env.params = &params;
  env.families = &families;
  const std::vector<Value> values{0, 1, 1, 3, 9, -1, 2, 5};
  State s(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) s.set(v[i], values[i]);
  const spec::CompiledExpr call = spec::compile_expr(
      spec::parse_expr("mex(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7])"),
      env);
  const spec::CompiledExpr comprehension =
      spec::compile_expr(spec::parse_expr("mex(k : range(0, 8), v[k])"), env);
  for (const spec::CompiledExpr* form : {&call, &comprehension}) {
    Value mex = -1;
    EXPECT_EQ(allocations_during([&] { mex = form->eval(s); }), 0u);
    EXPECT_EQ(mex, 4);
  }
}

}  // namespace
}  // namespace nonmask
