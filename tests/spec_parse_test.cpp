// The spec DSL front end: expression parsing/evaluation (including the
// total `/`-and-`%`-by-zero semantics), schema validation with
// field-precise paths and lines, compile-time expansion semantics
// (per-process families, {j} names, group interleaving, derived reads), and
// the wall clock of a job's report.
#include <chrono>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "checker/state_space.hpp"
#include "core/program.hpp"
#include "spec/compile.hpp"
#include "spec/expr.hpp"
#include "spec/job.hpp"
#include "spec/spec.hpp"
#include "util/json.hpp"

namespace nonmask {
namespace {

using spec::CompileEnv;
using spec::CompiledSpec;
using spec::ExprError;
using spec::SpecError;
using spec::Topology;
using spec::compile_expr;
using spec::compile_spec_text;
using spec::eval_index_expr;
using spec::parse_expr;
using spec::parse_spec;

long long idx(const std::string& text,
              const std::unordered_map<std::string, long long>& params = {},
              const Topology* topo = nullptr) {
  CompileEnv env;
  env.params = &params;
  env.topo = topo;
  return eval_index_expr(text, env);
}

TEST(SpecExprTest, PrecedenceAndArithmetic) {
  EXPECT_EQ(idx("2 + 3 * 4"), 14);
  EXPECT_EQ(idx("(2 + 3) * 4"), 20);
  EXPECT_EQ(idx("10 - 4 - 3"), 3);  // left associative
  EXPECT_EQ(idx("7 % 3"), 1);
  EXPECT_EQ(idx("-5 + 2"), -3);
  EXPECT_EQ(idx("!0"), 1);
  EXPECT_EQ(idx("!7"), 0);
}

TEST(SpecExprTest, DivisionAndModuloByZeroAreTotal) {
  // Documented totality: x / 0 == 0 and x % 0 == 0, never a trap.
  EXPECT_EQ(idx("7 / 0"), 0);
  EXPECT_EQ(idx("7 % 0"), 0);
  EXPECT_EQ(idx("0 / 0"), 0);
  EXPECT_EQ(idx("(3 - 3) % (2 - 2)"), 0);
}

TEST(SpecExprTest, ComparisonsBoolOpsTernary) {
  EXPECT_EQ(idx("3 < 4"), 1);
  EXPECT_EQ(idx("3 >= 4"), 0);
  EXPECT_EQ(idx("1 && 0 || 1"), 1);
  EXPECT_EQ(idx("1 ? 10 : 20"), 10);
  EXPECT_EQ(idx("0 ? 10 : 1 ? 20 : 30"), 20);  // right associative
}

TEST(SpecExprTest, ParamsAndMalformedInput) {
  EXPECT_EQ(idx("x_max + 1", {{"x_max", 3}}), 4);
  EXPECT_THROW(idx("2 +"), ExprError);
  EXPECT_THROW(idx("2 3"), ExprError);       // trailing garbage
  EXPECT_THROW(idx("nope"), ExprError);      // unknown identifier
  EXPECT_THROW(idx("(1 + 2"), ExprError);    // unbalanced paren
  EXPECT_THROW(idx("f(1, 2)"), ExprError);   // unknown call
}

TEST(SpecExprTest, IntegerLiteralOverflowIsAParseError) {
  // Specs are attacker-suppliable over HTTP: a literal past LLONG_MAX must
  // throw, not silently wrap through signed-overflow UB.
  EXPECT_EQ(idx("2147483647"), 2147483647LL);           // full Value range
  EXPECT_THROW(idx("9223372036854775808"), ExprError);  // LLONG_MAX + 1
  EXPECT_THROW(idx("99999999999999999999999999999999"), ExprError);
  EXPECT_THROW(idx("1 + 18446744073709551616"), ExprError);
}

// Nesting is bounded (kMaxExprDepth): parentheses, unary operators and
// ternaries count, and a deeper expression is an ExprError rather than a
// stack overflow in the parser or a later pass over its tree.
TEST(SpecExprTest, RejectsNestingPastTheDepthLimit) {
  const auto parens = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '(') + "1" +
           std::string(static_cast<std::size_t>(depth), ')');
  };
  // The whole expression is one level; each parenthesis adds one.
  EXPECT_EQ(idx(parens(spec::kMaxExprDepth - 1)), 1);
  EXPECT_THROW(idx(parens(spec::kMaxExprDepth)), ExprError);
  try {
    parse_expr(std::string(300'000, '!') + "0");
    FAIL() << "expected ExprError";
  } catch (const ExprError& e) {
    EXPECT_NE(std::string(e.what()).find("nested deeper than"),
              std::string::npos);
  }
  EXPECT_THROW(parse_expr(std::string(300'000, '-') + "1"), ExprError);
  std::string ternaries;
  for (int i = 0; i < 100'000; ++i) ternaries += "1?";
  EXPECT_THROW(parse_expr(ternaries + "1"), ExprError);
}

// Operator chains are one flat node, not nesting: a conjunction over a few
// hundred processes, or a 300,000-term sum, parses, compiles and evaluates
// left to right without deepening the stack.
TEST(SpecExprTest, LongOperatorChainsAreFlat) {
  const auto chain = [](int links, const std::string& op) {
    std::string text = "1";
    for (int i = 0; i < links; ++i) text += " " + op + " 1";
    return text;
  };
  EXPECT_EQ(idx(chain(999, "&&")), 1);
  EXPECT_EQ(idx(chain(999, "-")), -998);
  EXPECT_EQ(idx(chain(300'000, "+")), 300'001);
  EXPECT_EQ(parse_expr(chain(999, "||"))->args.size(), 1000u);
}

Topology ring4() {
  Topology t;
  t.kind = Topology::Kind::kRing;
  t.n = 4;
  t.nbrs = {{3, 1}, {0, 2}, {1, 3}, {2, 0}};
  return t;
}

// Checks mex over `values` in both spec forms — the call form
// mex(v[0], v[1], ...) and the comprehension form
// mex(k : range(0, n), v[k]) — at a state holding the values.
void expect_mex(const std::vector<Value>& values, Value want) {
  Program p("mex");
  std::unordered_map<std::string, std::vector<VarId>> families;
  std::vector<VarId>& v = families["v"];
  for (std::size_t i = 0; i < values.size(); ++i) {
    v.push_back(
        p.add_variable(VariableSpec("v." + std::to_string(i), -8, 255)));
  }
  std::unordered_map<std::string, long long> params;
  CompileEnv env;
  env.params = &params;
  env.families = &families;
  State s(values.size());
  std::string call = "mex(";
  for (std::size_t i = 0; i < values.size(); ++i) {
    s.set(v[i], values[i]);
    call += (i == 0 ? "v[" : ", v[") + std::to_string(i) + "]";
  }
  call += ")";
  const std::string comprehension =
      "mex(k : range(0, " + std::to_string(values.size()) + "), v[k])";
  EXPECT_EQ(compile_expr(parse_expr(call), env).eval(s), want) << call;
  EXPECT_EQ(compile_expr(parse_expr(comprehension), env).eval(s), want)
      << comprehension;
}

TEST(SpecExprTest, TopologyFunctionsAndComprehensions) {
  const Topology t = ring4();
  std::unordered_map<std::string, long long> params{{"n", 4}};
  EXPECT_EQ(idx("next(1)", params, &t), 2);
  EXPECT_EQ(idx("prev(0)", params, &t), 3);
  EXPECT_EQ(idx("nproc()", params, &t), 4);
  EXPECT_EQ(idx("sum(k : procs(), k)", params, &t), 6);
  EXPECT_EQ(idx("count(k : range(0, 4), k % 2 == 0)", params, &t), 2);
  EXPECT_EQ(idx("max(k : nbrs(0), k)", params, &t), 3);
  EXPECT_EQ(idx("all(k : procs(), k < 4)", params, &t), 1);
  EXPECT_EQ(idx("any(k : procs(), k == 9)", params, &t), 0);
  // mex/first always compile to state-time closures (never index consts).
  CompileEnv env;
  std::unordered_map<std::string, long long> p2{{"n", 4}};
  env.params = &p2;
  env.topo = &t;
  const State empty(0);
  EXPECT_EQ(compile_expr(parse_expr("mex(k : range(0, 3), k)"), env).eval(empty),
            3);
  EXPECT_EQ(
      compile_expr(parse_expr("first(k : procs(), k >= 2)"), env).eval(empty),
      2);
  // mex over state values, in the call and the comprehension form.
  expect_mex({0, 0, 1, 1, 3}, 2);  // duplicates
  expect_mex({-1, -3, 0, 2}, 1);   // negatives are never the mex
  expect_mex({5, 7, 100, 0}, 1);   // values >= k cannot fill [0, k)
  expect_mex({1, 2, 3}, 0);
  expect_mex({2, 0, 1}, 3);        // [0, k) all present: the mex is k
  std::vector<Value> seventy(70);  // 69, 68, ..., 0: two bitmask words
  for (std::size_t i = 0; i < seventy.size(); ++i) {
    seventy[i] = static_cast<Value>(69 - i);
  }
  expect_mex(seventy, 70);
  seventy[69 - 64] = 200;  // drop 64, the first value of the second word
  expect_mex(seventy, 64);
  seventy[69 - 3] = -5;  // and 3
  expect_mex(seventy, 3);
  // Constant arguments fold at compile time by the same rule.
  EXPECT_EQ(idx("mex(3, 0, 0, -2, 1, 9)"), 2);
  std::string call = "mex(";
  for (int i = 0; i < 70; ++i) {
    call += (i == 0 ? "" : ", ") + std::to_string(i == 66 ? 0 : i);
  }
  EXPECT_EQ(idx(call + ")"), 66);
}

TEST(SpecExprTest, StateClosuresCollectReadsInFirstOccurrenceOrder) {
  Program p("t");
  const VarId x = p.add_variable(VariableSpec("x", 0, 7));
  const VarId y = p.add_variable(VariableSpec("y", 0, 7));
  const std::unordered_map<std::string, VarId> names{{"x", x}, {"y", y}};
  CompileEnv env;
  std::unordered_map<std::string, long long> params;
  env.params = &params;
  env.names = &names;
  const auto ce = compile_expr(parse_expr("y + x * 2 + y"), env);
  ASSERT_FALSE(ce.is_const);
  ASSERT_EQ(ce.reads.size(), 2u);  // deduplicated
  EXPECT_EQ(ce.reads[0], y);       // first occurrence first
  EXPECT_EQ(ce.reads[1], x);
  State s(2);
  s.set(x, 3);
  s.set(y, 1);
  EXPECT_EQ(ce.eval(s), 1 + 3 * 2 + 1);
}

TEST(SpecExprTest, ConstantSubexpressionsFold) {
  Program p("t");
  const std::unordered_map<std::string, VarId> names{
      {"x", p.add_variable(VariableSpec("x", 0, 7))}};
  CompileEnv env;
  std::unordered_map<std::string, long long> params{{"n", 4}};
  env.params = &params;
  env.names = &names;
  // No program variable referenced -> whole expression is a constant.
  const auto ce = compile_expr(parse_expr("n * 2 + 1"), env);
  EXPECT_TRUE(ce.is_const);
  EXPECT_EQ(ce.value, 9);
  EXPECT_TRUE(ce.reads.empty());
}

// --- schema validation ----------------------------------------------------

std::string minimal_spec(const std::string& extra = "") {
  return std::string("{\n")
      + "  \"schema\": \"nonmask-spec/1\",\n"
      + "  \"name\": \"mini\",\n"
      + "  \"variables\": [{\"name\": \"x\", \"min\": \"0\", \"max\": \"3\"}],\n"
      + "  \"actions\": [{\"name\": \"step\", \"kind\": \"convergence\",\n"
      + "                \"guard\": \"x > 0\", \"assign\": {\"x\": \"x - 1\"},\n"
      + "                \"constraint\": \"0\"}],\n"
      + "  \"constraints\": [{\"name\": \"zero\", \"expr\": \"x == 0\"}]"
      + extra + "\n}\n";
}

TEST(SpecParseTest, AcceptsMinimalSpec) {
  const auto doc = parse_spec(minimal_spec());
  EXPECT_EQ(doc.name, "mini");
  EXPECT_EQ(doc.variables.size(), 1u);
  EXPECT_EQ(doc.actions.size(), 1u);
  EXPECT_EQ(doc.constraints.size(), 1u);
}

TEST(SpecParseTest, RejectsWrongSchema) {
  try {
    parse_spec("{\"schema\": \"nonmask-spec/99\", \"name\": \"x\"}");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "$.schema");
  }
  EXPECT_THROW(parse_spec("{\"name\": \"x\"}"), SpecError);  // schema missing
}

TEST(SpecParseTest, ErrorsCarryPathAndLine) {
  // guard must be a string; the error names the exact field and line.
  const std::string text =
      "{\n"
      "  \"schema\": \"nonmask-spec/1\",\n"
      "  \"name\": \"bad\",\n"
      "  \"variables\": [{\"name\": \"x\", \"min\": \"0\", \"max\": \"1\"}],\n"
      "  \"actions\": [\n"
      "    {\"name\": \"a\", \"kind\": \"closure\",\n"
      "     \"guard\": 17,\n"
      "     \"assign\": {\"x\": \"0\"}}\n"
      "  ]\n"
      "}\n";
  try {
    parse_spec(text);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "$.actions[0].guard");
    EXPECT_EQ(e.line(), 7);
    EXPECT_NE(std::string(e.what()).find("line 7"), std::string::npos);
  }
}

TEST(SpecParseTest, RejectsUnknownActionKindAndJobType) {
  EXPECT_THROW(
      parse_spec(
          "{\"schema\": \"nonmask-spec/1\", \"name\": \"x\","
          " \"variables\": [{\"name\": \"x\", \"min\": \"0\", \"max\": \"1\"}],"
          " \"actions\": [{\"name\": \"a\", \"kind\": \"sideways\","
          "                \"assign\": {\"x\": \"0\"}}]}"),
      SpecError);
  EXPECT_THROW(parse_spec(minimal_spec(",\n  \"job\": {\"type\": \"dance\"}")),
               SpecError);
}

TEST(SpecParseTest, RejectsUnknownTopLevelField) {
  EXPECT_THROW(parse_spec(minimal_spec(",\n  \"typo_field\": 1")), SpecError);
}

TEST(SpecParseTest, ContentHashIsStableAndTextSensitive) {
  const std::string a = minimal_spec();
  EXPECT_EQ(spec::fnv1a64_hex(a), spec::fnv1a64_hex(a));
  EXPECT_EQ(spec::fnv1a64_hex(a).size(), 16u);
  EXPECT_NE(spec::fnv1a64_hex(a), spec::fnv1a64_hex(a + " "));
}

// Hostile documents fail validation instead of crashing it: a 400 KB run of
// '[' and a constraint of 300,000 '!' each throw, the way `spec_tool
// validate` and a server submit see them.
TEST(SpecParseTest, DeeplyNestedDocumentsAreRejected) {
  EXPECT_THROW(parse_spec(std::string(400'000, '[')), std::exception);
  const std::string deep_constraint = minimal_spec().replace(
      minimal_spec().find("x == 0"), 6, std::string(300'000, '!') + "x");
  try {
    compile_spec_text(deep_constraint);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "$.constraints[0].expr");
    EXPECT_NE(std::string(e.what()).find("nested deeper than"),
              std::string::npos);
  }
}

// A constraint of 1000 conjuncts compiles to a state closure and evaluates
// either way.
TEST(SpecParseTest, LongConjunctionConstraintCompiles) {
  std::string conj = "x == 0";
  for (int i = 1; i < 1000; ++i) conj += " && x < 3";
  const CompiledSpec cs = compile_spec_text(
      minimal_spec().replace(minimal_spec().find("x == 0"), 6, conj));
  const PredicateFn S = cs.design.S();
  State s(1);
  EXPECT_TRUE(S(s));
  s.set(VarId(0), 2);
  EXPECT_FALSE(S(s));
}

// --- compilation semantics ------------------------------------------------

const char* kRingSpec = R"({
  "schema": "nonmask-spec/1",
  "name": "ring-demo",
  "topology": {"kind": "ring", "n": 3},
  "variables": [{"name": "x", "per": "process", "min": "0", "max": "2"}],
  "constraints": [
    {"name": "eq.{j}", "per": "process", "where": "j > 0",
     "expr": "x[j] == x[j - 1]"}
  ],
  "actions": [
    {"name": "copy@{j}", "kind": "convergence", "per": "process",
     "where": "j > 0", "guard": "x[j] != x[j - 1]",
     "assign": {"x[j]": "x[j - 1]"}, "constraint": "j - 1"}
  ]
})";

TEST(SpecCompileTest, ExpandsPerProcessDeclarations) {
  const CompiledSpec cs = compile_spec_text(kRingSpec);
  const Program& p = cs.design.program;
  ASSERT_EQ(p.num_variables(), 3u);
  EXPECT_EQ(p.variable(VarId(0)).name, "x.0");
  EXPECT_EQ(p.variable(VarId(2)).name, "x.2");
  EXPECT_EQ(p.variable(VarId(1)).process, 1);
  ASSERT_EQ(p.num_actions(), 2u);
  EXPECT_EQ(p.action(0).name(), "copy@1");
  EXPECT_EQ(p.action(1).name(), "copy@2");
  EXPECT_EQ(p.action(0).constraint_id(), 0);
  EXPECT_EQ(p.action(1).constraint_id(), 1);
  ASSERT_EQ(cs.design.invariant.size(), 2u);
  EXPECT_EQ(cs.design.invariant.at(0).name, "eq.1");
  // Derived reads: guard + rhs first-occurrence order, deduplicated.
  ASSERT_EQ(p.action(0).reads().size(), 2u);
  EXPECT_EQ(p.action(0).reads()[0], p.find_variable("x.1"));
  EXPECT_EQ(p.action(0).reads()[1], p.find_variable("x.0"));
  // Provenance fields round through.
  EXPECT_EQ(cs.spec_name, "ring-demo");
  EXPECT_EQ(cs.schema, spec::kSchemaVersion);
  EXPECT_EQ(cs.content_hash.size(), 16u);
}

TEST(SpecCompileTest, ActionSemanticsAreSimultaneous) {
  // Both right-hand sides read the pre-state: a swap really swaps.
  const char* text = R"({
    "schema": "nonmask-spec/1",
    "name": "swap",
    "variables": [
      {"name": "a", "min": "0", "max": "9"},
      {"name": "b", "min": "0", "max": "9"}
    ],
    "constraints": [{"name": "eq", "expr": "a == b"}],
    "actions": [
      {"name": "swap", "kind": "convergence", "guard": "a != b",
       "assign": {"a": "b", "b": "a"}, "constraint": "0"}
    ]
  })";
  const CompiledSpec cs = compile_spec_text(text);
  const Program& p = cs.design.program;
  State s(2);
  s.set(VarId(0), 3);
  s.set(VarId(1), 8);
  const State t = p.action(0).apply(s);
  EXPECT_EQ(t.get(VarId(0)), 8);
  EXPECT_EQ(t.get(VarId(1)), 3);
}

TEST(SpecCompileTest, GroupedDeclarationsInterleaveProcessMajor) {
  const char* text = R"({
    "schema": "nonmask-spec/1",
    "name": "grouped",
    "topology": {"kind": "ring", "n": 2},
    "variables": [{"name": "x", "per": "process", "min": "0", "max": "1"}],
    "constraints": [
      {"name": "ge.{j}", "per": "process", "expr": "x[j] >= 0",
       "group": "layers"},
      {"name": "eq.{j}", "per": "process", "expr": "x[j] == 0",
       "group": "layers"}
    ],
    "actions": [
      {"name": "fix@{j}", "kind": "convergence", "per": "process",
       "guard": "x[j] != 0", "assign": {"x[j]": "0"}, "constraint": "2 * j + 1"}
    ]
  })";
  const CompiledSpec cs = compile_spec_text(text);
  // Interleaved: ge.0, eq.0, ge.1, eq.1 — not ge.0, ge.1, eq.0, eq.1.
  ASSERT_EQ(cs.design.invariant.size(), 4u);
  EXPECT_EQ(cs.design.invariant.at(0).name, "ge.0");
  EXPECT_EQ(cs.design.invariant.at(1).name, "eq.0");
  EXPECT_EQ(cs.design.invariant.at(2).name, "ge.1");
  EXPECT_EQ(cs.design.invariant.at(3).name, "eq.1");
}

TEST(SpecCompileTest, RejectsSemanticErrorsWithPath) {
  // Unknown variable in a guard.
  const char* text = R"({
    "schema": "nonmask-spec/1",
    "name": "bad",
    "variables": [{"name": "x", "min": "0", "max": "1"}],
    "constraints": [{"name": "c", "expr": "x == 0"}],
    "actions": [
      {"name": "a", "kind": "convergence", "guard": "ghost > 0",
       "assign": {"x": "0"}, "constraint": "0"}
    ]
  })";
  try {
    compile_spec_text(text);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(e.path().find("$.actions[0]"), std::string::npos);
  }
}

TEST(SpecCompileTest, RejectsOutOfRangeConstraintId) {
  const char* text = R"({
    "schema": "nonmask-spec/1",
    "name": "bad",
    "variables": [{"name": "x", "min": "0", "max": "1"}],
    "constraints": [{"name": "c", "expr": "x == 0"}],
    "actions": [
      {"name": "a", "kind": "convergence", "guard": "x > 0",
       "assign": {"x": "0"}, "constraint": "5"}
    ]
  })";
  EXPECT_THROW(compile_spec_text(text), SpecError);
}

// --- job reports ------------------------------------------------------------

TEST(SpecJobTest, ReportWallTimeCoversTheJob) {
  // A falsify job long enough to time: many walks on a converging ring.
  const CompiledSpec cs = compile_spec_text(R"({
    "schema": "nonmask-spec/1",
    "name": "ring",
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
    "job": {"type": "falsify", "walks": 40000, "walk_length": 400, "seed": 1}
  })");
  const auto t0 = std::chrono::steady_clock::now();
  const spec::JobResult result = spec::run_spec_job(cs);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  ASSERT_GE(elapsed_ms, 50.0) << "the job is too short to time";
  const util::JsonValue report = util::parse_json(result.report_json);
  const util::JsonValue* wall_ms = report.find("wall_ms");
  ASSERT_NE(wall_ms, nullptr);
  EXPECT_GE(wall_ms->as_double(), elapsed_ms / 2);
}

/// a, b in [0, 3] with S = (b == 0) and one action `b != 0 -> b := <step>`,
/// checked unfair or weakly fair.
std::string escaping_spec(const std::string& step, bool weakly_fair) {
  return R"({
    "schema": "nonmask-spec/1",
    "name": "escape",
    "variables": [{"name": "a", "min": 0, "max": 3},
                  {"name": "b", "min": 0, "max": 3}],
    "constraints": [{"name": "zero", "expr": "b == 0"}],
    "actions": [
      {"name": "bump", "kind": "convergence", "guard": "b != 0",
       "assign": {"b": ")" + step + R"("}, "constraint": "0"}
    ],
    "job": {"type": "check", "weakly_fair": )" +
         (weakly_fair ? "true" : "false") + "}\n  }";
}

// A successor outside the domain has no code. The check job fails naming
// the variable, instead of reading past the engine's per-code arrays
// (b + 100) or reporting a deadlock at states whose action is enabled
// (b + 1).
TEST(SpecJobTest, CheckFailsWhenAnActionWritesOutsideItsDomain) {
  for (const char* step : {"b + 1", "b + 100"}) {
    for (const bool fair : {false, true}) {
      SCOPED_TRACE(std::string(step) + (fair ? " weakly fair" : " unfair"));
      const CompiledSpec cs = compile_spec_text(escaping_spec(step, fair));
      try {
        spec::run_spec_job(cs);
        ADD_FAILURE() << "expected StateOutOfDomain";
      } catch (const StateOutOfDomain& e) {
        EXPECT_EQ(e.variable(), "b");
        const std::string what = e.what();
        EXPECT_NE(what.find("'b'"), std::string::npos) << what;
        EXPECT_NE(what.find("[0, 3]"), std::string::npos) << what;
      }
    }
  }
}

}  // namespace
}  // namespace nonmask
