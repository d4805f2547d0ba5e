// Footprint tables (spec/footprint.hpp): every tabulated spec expression
// answers exactly what its closure answers, inside its domain by lookup and
// outside by falling back to the closure; the maximal small subexpressions
// get the tables; one design's tables fill once, within its state count.
// Successor tables (core/successor_table.hpp): every lookup equals the
// action's guard, statement and encode; the footprint is derived, never
// declared; a table answers only on its own layout; first lookups raced by
// prefetch workers give the one-thread reports.
#include <atomic>
#include <barrier>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "checker/convergence_check.hpp"
#include "checker/state_space.hpp"
#include "checker/successor_codes.hpp"
#include "core/successor_table.hpp"
#include "obs/report.hpp"
#include "spec/compile.hpp"
#include "spec/emit.hpp"
#include "spec/job.hpp"
#include "spec/registry.hpp"
#include "store/facade.hpp"
#include "util/json.hpp"

namespace nonmask {
namespace {

using spec::CompiledSpec;
using spec::FootprintTable;
using spec::FootprintTables;

/// Compare every table of `c` with its closure on every footprint
/// combination (other variables at lo), and on each combination with one
/// footprint value moved to lo - 1 and to hi + 1.
void expect_tables_match_closures(const CompiledSpec& c,
                                  const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_NE(c.tables, nullptr);
  const FootprintTables& tables = *c.tables;
  EXPECT_LE(tables.entries(),
            c.design.program.state_count().value_or(~std::uint64_t{0}));
  std::uint64_t compared = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  auto compare = [&](const FootprintTable& t, std::size_t i, const State& s) {
    ++compared;
    const Value got = t.eval(s);
    const Value want = t.closure()(s);
    if (got == want) return;
    if (mismatches++ == 0) {
      first_mismatch = "table " + std::to_string(i) + " at " +
                       c.design.program.format_state(s) + ": " +
                       std::to_string(got) + " != " + std::to_string(want);
    }
  };
  for (std::size_t i = 0; i < tables.size(); ++i) {
    const FootprintTable& t = tables.at(i);
    State s = c.design.program.initial_state();
    for (std::uint32_t entry = 0; entry < t.entries(); ++entry) {
      compare(t, i, s);
      for (const FootprintTable::Digit& d : t.digits()) {
        const Value v = s.get(d.var);
        const long long hi = static_cast<long long>(d.lo) + d.size - 1;
        for (const long long outside : {static_cast<long long>(d.lo) - 1,
                                        hi + 1}) {
          if (outside < std::numeric_limits<Value>::min() ||
              outside > std::numeric_limits<Value>::max()) {
            continue;
          }
          s.set(d.var, static_cast<Value>(outside));
          compare(t, i, s);
        }
        s.set(d.var, v);
      }
      // Next combination, the first digit fastest.
      for (const FootprintTable::Digit& d : t.digits()) {
        if (s.get(d.var) - d.lo + 1 < static_cast<long long>(d.size)) {
          s.set(d.var, s.get(d.var) + 1);
          break;
        }
        s.set(d.var, d.lo);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << first_mismatch << " (" << compared
                            << " comparisons)";
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(SpecTableTest, EveryBuiltinTableMatchesItsClosure) {
  std::size_t tabulated = 0;
  for (const spec::RegistryEntry& entry : spec::registry()) {
    const CompiledSpec c =
        spec::compile_spec_text(spec::emit_builtin_spec(entry.name));
    tabulated += c.tables->size() > 0 ? 1 : 0;
    expect_tables_match_closures(c, entry.name);
  }
  EXPECT_EQ(tabulated, spec::registry().size());
}

TEST(SpecTableTest, EverySpecDocumentTableMatchesItsClosure) {
  std::size_t documents = 0;
  for (const auto& file :
       std::filesystem::directory_iterator(NONMASK_SPECS_DIR)) {
    if (file.path().extension() != ".json") continue;
    ++documents;
    const CompiledSpec c = spec::compile_spec_text(read_file(file.path()));
    EXPECT_GT(c.tables->size(), 0u) << file.path();
    expect_tables_match_closures(c, file.path().filename().string());
  }
  EXPECT_GT(documents, 0u);
}

/// The ring of specs/ and perfbench at n processes and K values.
std::string ring_spec(int n, int K) {
  return R"({
    "schema": "nonmask-spec/1",
    "name": "dijkstra-k-state-ring",
    "params": {"K": )" +
         std::to_string(K) + R"(},
    "topology": {"kind": "ring", "n": )" +
         std::to_string(n) + R"(},
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
}

TEST(SpecTableTest, MaximalSmallSubexpressionsGetTheTables) {
  // The 6x8 ring: 5 constraints and 6 guards over two variables (64
  // entries each), advance's right-hand side over x.0 (8), and the six
  // `? 1 : 0` terms of S (64 each). S itself reads all six variables, so
  // it stays a closure over those six lookups; adopt's right-hand sides
  // are lone variable reads.
  const CompiledSpec c = spec::compile_spec_text(ring_spec(6, 8));
  ASSERT_EQ(c.tables->size(), 18u);
  EXPECT_EQ(c.tables->entries(), 17u * 64 + 8);

  // A hand-compiled expression over four 16-value variables: the whole is
  // too wide (65,536 combinations), so its operands are tabulated — those
  // that fit, and not the parts inside them.
  Program p("t");
  std::unordered_map<std::string, VarId> names;
  for (const char* v : {"x", "y", "z", "w"}) {
    names[v] = p.add_variable(VariableSpec(v, 0, 15));
  }
  const auto tables = std::make_shared<FootprintTables>(p);
  std::unordered_map<std::string, long long> params;
  spec::CompileEnv env;
  env.params = &params;
  env.names = &names;
  env.tables = tables.get();
  const char* text = "(x + y) * 2 + (z == w ? 1 : 0) + x * w * z * y";
  spec::CompiledExpr e = spec::compile_expr(spec::parse_expr(text), env);
  tables->tabulate(e);
  ASSERT_EQ(tables->size(), 2u);
  EXPECT_EQ(e.table, nullptr);
  const auto digit_vars = [&](std::size_t i) {
    std::vector<VarId> out;
    for (const auto& d : tables->at(i).digits()) out.push_back(d.var);
    return out;
  };
  EXPECT_EQ(digit_vars(0), (std::vector<VarId>{names["x"], names["y"]}));
  EXPECT_EQ(digit_vars(1), (std::vector<VarId>{names["z"], names["w"]}));
  EXPECT_EQ(tables->entries(), 512u);

  // The same expression without tables agrees on every state, in the
  // domain and out of it.
  spec::CompileEnv plain = env;
  plain.tables = nullptr;
  const spec::CompiledExpr closure =
      spec::compile_expr(spec::parse_expr(text), plain);
  State s(4);
  for (Value v = -1; v <= 16; ++v) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      s.set(VarId(i), static_cast<Value>((v + 3 * i) % 18 - 1));
    }
    EXPECT_EQ(e.eval(s), closure.eval(s)) << p.format_state(s);
  }
}

TEST(SpecTableTest, TheFirstLookupFillsEveryTableOnce) {
  // Two tables whose closures count their calls: tabulating calls neither,
  // and eight threads racing the first lookup call each once per entry.
  Program p("t");
  const VarId x = p.add_variable(VariableSpec("x", 0, 15));
  const VarId y = p.add_variable(VariableSpec("y", 0, 15));
  const VarId z = p.add_variable(VariableSpec("z", 0, 3));
  const auto tables = std::make_shared<FootprintTables>(p);
  std::atomic<std::uint32_t> calls{0};
  spec::CompiledExpr xy;
  xy.reads = {x, y};
  xy.fn = [&calls, x, y](const State& s) {
    calls.fetch_add(1, std::memory_order_relaxed);
    return static_cast<Value>(s.get(x) * 16 + s.get(y));
  };
  spec::CompiledExpr yz;
  yz.reads = {y, z};
  yz.fn = [&calls, y, z](const State& s) {
    calls.fetch_add(1, std::memory_order_relaxed);
    return static_cast<Value>(s.get(y) - s.get(z));
  };
  tables->tabulate(xy);
  tables->tabulate(yz);
  ASSERT_EQ(tables->size(), 2u);
  ASSERT_EQ(tables->entries(), 256u + 64u);
  EXPECT_EQ(calls.load(), 0u);

  constexpr unsigned kThreads = 8;
  std::vector<std::uint32_t> wrong(kThreads, 0);
  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      State s(3);
      start.arrive_and_wait();  // all first lookups race for the fill
      for (Value i = 0; i < 64; ++i) {
        s.set(x, static_cast<Value>((i + t) % 16));
        s.set(y, static_cast<Value>(i % 16));
        s.set(z, static_cast<Value>(i % 4));
        // Odd threads look up the second table first.
        const Value a = t % 2 == 0 ? xy.eval(s) : yz.eval(s);
        const Value b = t % 2 == 0 ? yz.eval(s) : xy.eval(s);
        const Value want_xy = static_cast<Value>(s.get(x) * 16 + s.get(y));
        const Value want_yz = static_cast<Value>(s.get(y) - s.get(z));
        wrong[t] += (t % 2 == 0 ? a != want_xy || b != want_yz
                                : a != want_yz || b != want_xy)
                        ? 1
                        : 0;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(calls.load(), 256u + 64u);
  EXPECT_EQ(wrong, std::vector<std::uint32_t>(kThreads, 0));
}

TEST(SpecTableTest, EightThreadsCheckOneFreshDesignAlike) {
  const CompiledSpec c = spec::compile_spec_text(ring_spec(5, 6));
  ASSERT_GT(c.tables->size(), 0u);
  const StateSpace space(c.design.program);
  const PredicateFn S = c.design.S();
  store::StoreConfig config;
  config.threads = 1;
  constexpr unsigned kThreads = 8;
  std::vector<ClosureReport> reports(kThreads);
  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();  // all first lookups race for the fill
      reports[t] = store::check_closed_via(config, space, S);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const ClosureReport& r : reports) {
    EXPECT_TRUE(r.closed);
    EXPECT_EQ(r.states_checked, reports[0].states_checked);
    EXPECT_EQ(r.transitions_checked, reports[0].transitions_checked);
  }
  EXPECT_GT(reports[0].states_checked, 0u);
}

/// The named sections of a job's report, as one JSON text.
std::string sections(const spec::JobResult& job,
                     std::initializer_list<const char*> keys) {
  const util::JsonValue report = util::parse_json(job.report_json);
  std::string out;
  for (const char* key : keys) {
    const util::JsonValue* section = report.find(key);
    out += std::string(key) + "=" +
           (section == nullptr ? "missing" : util::dump_json(*section)) + ";";
  }
  return out;
}

std::string normalized(std::initializer_list<
                       std::pair<const char*, const char*>> sections_json) {
  std::string out;
  for (const auto& [key, json] : sections_json) {
    out += std::string(key) + "=" + util::dump_json(util::parse_json(json)) +
           ";";
  }
  return out;
}

CompiledSpec with_job(const std::string& spec_text, const std::string& job) {
  util::JsonValue doc = util::parse_json(spec_text);
  for (auto& [key, value] : doc.object) {
    if (key == "job") value = util::parse_json(job);
  }
  return spec::compile_spec_text(util::dump_json(doc));
}

// `climb` writes b past its domain [0, 3], so falsify walks and campaign
// trials evaluate guards, right-hand sides and S on states the tables do
// not cover; there `climb` and `drop` stay enabled, which a lookup that
// misread such a state would change. `pad` only raises the state count to
// 64, so every expression fits the budget and gets its table. The expected
// sections are the reports from before the tables.
TEST(SpecTableTest, StatesOutsideTheDomainEvaluateByClosure) {
  const std::string text = R"({
    "schema": "nonmask-spec/1",
    "name": "overflow",
    "variables": [
      {"name": "b", "min": 0, "max": 3},
      {"name": "c", "min": 0, "max": 3},
      {"name": "pad", "min": 0, "max": 3}
    ],
    "constraints": [
      {"name": "low", "expr": "b + c < 3"}
    ],
    "actions": [
      {"name": "climb", "kind": "closure", "guard": "b != c + 6",
       "assign": {"b": "b + 1"}},
      {"name": "drop", "kind": "convergence", "guard": "b + c >= 3 && b < 6",
       "assign": {"b": "b % 2", "c": "c / 2"}, "constraint": "0"}
    ],
    "faults": [
      {"model": "corrupt-k-variables", "k": 1, "schedule": "at", "step": 0}
    ],
    "job": {"type": "check"}
  })";
  const CompiledSpec check = with_job(text, R"({"type": "check"})");
  EXPECT_EQ(check.tables->size(), 6u);
  EXPECT_THROW(spec::run_spec_job(check), StateOutOfDomain);

  EXPECT_EQ(
      sections(spec::run_spec_job(with_job(
                   text, R"({"type": "falsify", "walks": 40,
                             "walk_length": 50})")),
               {"falsify"}),
      normalized({{"falsify", R"({"violated": true, "walks_run": 6,
                   "steps_taken": 16, "cycle_length": 0,
                   "deadlock": true})"}}));
  EXPECT_EQ(
      sections(spec::run_spec_job(with_job(
                   text, R"({"type": "campaign", "trials": 20,
                             "max_steps": 40})")),
               {"campaign"}),
      normalized({{"campaign", R"({"converged_fraction":0.84999999999999998,
        "steps":{"count":17,"sum":26,"mean":1.5294117647058822,
          "stddev":1.0910139406465533,"min":0,"max":4,"p50":1,
          "p95":3.1999999999999993,"p99":3.8399999999999999},
        "rounds":{"count":17,"sum":8,"mean":0.47058823529411764,
          "stddev":0.49913419848462182,"min":0,"max":1,"p50":0,"p95":1,
          "p99":1},
        "moves":{"count":17,"sum":26,"mean":1.5294117647058822,
          "stddev":1.0910139406465533,"min":0,"max":4,"p50":1,
          "p95":3.1999999999999993,"p99":3.8399999999999999}})"}}));
}

// Four states, but six expressions over both variables: only the first
// (in compile order) gets its table, the rest keep their closures, and the
// reports are those from before the tables.
TEST(SpecTableTest, TablesNeverOutgrowTheStateCount) {
  const std::string text = R"({
    "schema": "nonmask-spec/1",
    "name": "budget",
    "variables": [
      {"name": "a", "min": 0, "max": 1},
      {"name": "b", "min": 0, "max": 1}
    ],
    "constraints": [
      {"name": "low", "expr": "a + b < 2"},
      {"name": "tie", "expr": "a == b || a == 0"}
    ],
    "actions": [
      {"name": "lower", "kind": "convergence", "guard": "a + b == 2",
       "assign": {"a": "a * b - 1"}, "constraint": "0"},
      {"name": "untie", "kind": "convergence", "guard": "a != b && a == 1",
       "assign": {"b": "a + b"}, "constraint": "1"}
    ],
    "job": {"type": "check"}
  })";
  const CompiledSpec check = with_job(text, R"({"type": "check"})");
  ASSERT_EQ(check.tables->size(), 1u);
  EXPECT_EQ(check.tables->entries(), 4u);
  expect_tables_match_closures(check, "budget");

  EXPECT_EQ(
      sections(spec::run_spec_job(check),
               {"closure_S", "closure_T", "convergence"}),
      normalized(
          {{"closure_S", R"({"closed":true,"states_checked":2,
              "transitions_checked":0,"has_violation":false})"},
           {"closure_T", R"({"closed":true,"states_checked":4,
              "transitions_checked":2,"has_violation":false})"},
           {"convergence", R"({"verdict":"converges","states_in_T":4,
              "states_in_S":2,"region_states":2,"transitions":2,
              "max_steps_to_S":2,"has_cycle":false,
              "has_deadlock":false})"}}));
  EXPECT_EQ(
      sections(spec::run_spec_job(with_job(
                   text, R"({"type": "falsify", "walks": 40,
                             "walk_length": 50})")),
               {"falsify"}),
      normalized({{"falsify", R"({"violated": false, "walks_run": 40,
                   "steps_taken": 67, "cycle_length": 0,
                   "deadlock": false})"}}));
  EXPECT_EQ(
      sections(spec::run_spec_job(with_job(
                   text, R"({"type": "campaign", "trials": 20,
                             "max_steps": 40})")),
               {"campaign"}),
      normalized({{"campaign", R"({"converged_fraction":1,
        "steps":{"count":20,"sum":24,"mean":1.2,"stddev":0.87177978870813466,
          "min":0,"max":2,"p50":1.5,"p95":2,"p99":2},
        "rounds":{"count":20,"sum":24,"mean":1.2,"stddev":0.87177978870813466,
          "min":0,"max":2,"p50":1.5,"p95":2,"p99":2},
        "moves":{"count":20,"sum":24,"mean":1.2,"stddev":0.87177978870813466,
          "min":0,"max":2,"p50":1.5,"p95":2,"p99":2}})"}}));
}

/// Compare every successor-table entry of `c`, and the engine's successor
/// code from it (SuccessorCodes), with the action's guard, apply_into and
/// encode, at every code of its space.
void expect_successor_tables_match_closures(const CompiledSpec& c,
                                            const std::string& label) {
  SCOPED_TRACE(label);
  const Program& p = c.design.program;
  const StateSpace space(p);
  std::uint64_t entries = 0;
  std::vector<std::size_t> tabled;
  for (std::size_t i = 0; i < p.num_actions(); ++i) {
    const auto& table = p.action(i).successor_table();
    if (table == nullptr) continue;
    EXPECT_NE(p.action(i).kind(), ActionKind::kFault) << p.action(i).name();
    EXPECT_TRUE(table->fits(p));
    EXPECT_FALSE(table->filled()) << "filled before its first lookup";
    entries += table->entries();
    tabled.push_back(i);
  }
  ASSERT_FALSE(tabled.empty());
  EXPECT_LE(entries, space.size());

  SuccessorCodes codes(space, tabled);
  std::uint64_t compared = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  State s(p.num_variables());
  State next(p.num_variables());
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    space.decode_into(code, s);
    for (std::size_t i = 0; i < tabled.size(); ++i) {
      const Action& a = p.action(tabled[i]);
      // The closures' answer, as an entry: disabled, out of the domain, or
      // the successor's code offset.
      std::int64_t want = SuccessorTable::kDisabled;
      if (a.enabled(s)) {
        a.apply_into(s, next);
        try {
          want = static_cast<std::int64_t>(space.encode(next) - code);
        } catch (const StateOutOfDomain&) {
          want = SuccessorTable::kLeavesDomain;
        }
      }
      // The engine's answer: out of the domain it throws as encode does.
      std::int64_t got = SuccessorTable::kLeavesDomain;
      try {
        const std::uint64_t succ = codes.successor(i, code, s);
        got = succ == SuccessorCodes::kDisabled
                  ? SuccessorTable::kDisabled
                  : static_cast<std::int64_t>(succ - code);
      } catch (const StateOutOfDomain&) {
      }
      const SuccessorTable& t = *a.successor_table();
      const auto& digits = t.digits();
      const std::int64_t entry = t.values(a)[SuccessorTable::index(
          digits.data(), digits.data() + digits.size(), s)];
      ++compared;
      if ((entry != want || got != want) && mismatches++ == 0) {
        first_mismatch = a.name() + " at " + p.format_state(s) + ": entry " +
                         std::to_string(entry) + ", engine " +
                         std::to_string(got) + ", closures " +
                         std::to_string(want);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << first_mismatch << " (" << compared
                            << " comparisons)";
}

TEST(SpecTableTest, EverySuccessorLookupMatchesTheClosures) {
  for (const spec::RegistryEntry& entry : spec::registry()) {
    expect_successor_tables_match_closures(
        spec::compile_spec_text(spec::emit_builtin_spec(entry.name)),
        entry.name);
  }
  expect_successor_tables_match_closures(
      spec::compile_spec_text(read_file(
          std::filesystem::path(NONMASK_PERFBENCH_SPECS_DIR) /
          "dijkstra_ring.json")),
      "perfbench dijkstra_ring.json");
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

std::string render(const ToleranceReport& r) {
  return render(r.closure_S) + " | " + render(r.closure_T) + " | " +
         render(r.convergence);
}

/// `d` with every action's successor table dropped: the closure path.
Design without_successor_tables(const Design& d) {
  Design out = d;
  out.program = Program(d.program.name());
  for (const VariableSpec& v : d.program.variables()) {
    out.program.add_variable(v);
  }
  for (Action a : d.program.actions()) {
    a.set_successor_table(nullptr);
    out.program.add_action(std::move(a));
  }
  return out;
}

// `fix` declares that it reads only x, but its guard reads y as well. Its
// table spans the derived footprint {x, y}; one over the declared reads
// would give every state of one x value the same answer. `spin` walks y
// up inside S and `kick` breaks the agreement, so the check expands both S
// and ¬S states, with and without fairness.
TEST(SpecTableTest, DeclaredReadsNeverNarrowTheFootprint) {
  const CompiledSpec c = spec::compile_spec_text(R"({
    "schema": "nonmask-spec/1",
    "name": "declared-reads",
    "variables": [
      {"name": "x", "min": 0, "max": 3},
      {"name": "y", "min": 0, "max": 3}
    ],
    "constraints": [
      {"name": "agree", "expr": "x == y"}
    ],
    "actions": [
      {"name": "fix", "kind": "convergence", "guard": "x != y",
       "assign": {"x": "y"}, "reads": ["x"], "constraint": "0"},
      {"name": "spin", "kind": "closure", "guard": "x == y && y < 3",
       "assign": {"x": "x + 1", "y": "y + 1"}, "reads": ["y"]},
      {"name": "kick", "kind": "environment", "guard": "x == 3 && y == 3",
       "assign": {"y": "0"}}
    ]
  })");
  const Program& p = c.design.program;
  const Action& fix = p.action(0);
  ASSERT_EQ(fix.reads(), (std::vector<VarId>{p.find_variable("x")}));
  ASSERT_NE(fix.successor_table(), nullptr);
  std::vector<VarId> footprint;
  for (const auto& d : fix.successor_table()->digits()) {
    footprint.push_back(d.var);
  }
  EXPECT_EQ(footprint,
            (std::vector<VarId>{p.find_variable("x"), p.find_variable("y")}));
  expect_successor_tables_match_closures(c, "declared-reads");

  const Design closures = without_successor_tables(c.design);
  for (const bool fair : {false, true}) {
    SCOPED_TRACE(fair ? "weakly fair" : "unfair");
    store::StoreConfig config;
    config.threads = 1;
    const StateSpace tabled_space(c.design.program);
    const StateSpace closure_space(closures.program);
    const std::string tabled = render(
        store::verify_tolerance_via(config, tabled_space, c.design, fair));
    EXPECT_EQ(tabled, render(store::verify_tolerance_via(
                          config, closure_space, closures, fair)));
    EXPECT_NE(tabled.find("\"states_checked\":4"), std::string::npos)
        << tabled;
  }
}

// An action copied into a program whose layout differs (x has two values
// instead of four, so y's stride in the code halves) keeps its table, but
// the table's offsets are wrong there: the pass answers by closures.
TEST(SpecTableTest, TablesAnswerOnlyOnTheirLayout) {
  const CompiledSpec c = spec::compile_spec_text(R"({
    "schema": "nonmask-spec/1",
    "name": "layout",
    "variables": [
      {"name": "x", "min": 0, "max": 3},
      {"name": "y", "min": 0, "max": 3}
    ],
    "constraints": [{"name": "low", "expr": "y < 2"}],
    "actions": [
      {"name": "drop", "kind": "convergence", "guard": "y >= 2",
       "assign": {"y": "y - 2"}, "constraint": "0"}
    ]
  })");
  const Action& drop = c.design.program.action(0);
  ASSERT_NE(drop.successor_table(), nullptr);
  Program narrow("narrow");
  narrow.add_variable(VariableSpec("x", 0, 1));
  narrow.add_variable(VariableSpec("y", 0, 3));
  narrow.add_action(drop);
  EXPECT_TRUE(drop.successor_table()->fits(c.design.program));
  EXPECT_FALSE(drop.successor_table()->fits(narrow));

  const Program* programs[] = {&c.design.program, &narrow};
  for (const Program* p : programs) {
    SCOPED_TRACE(p->name());
    const StateSpace space(*p);
    SuccessorCodes codes(space, {0});
    State s(2);
    State next(2);
    for (std::uint64_t code = 0; code < space.size(); ++code) {
      space.decode_into(code, s);
      const std::uint64_t want = drop.enabled(s)
                                     ? space.encode(drop.apply(s))
                                     : SuccessorCodes::kDisabled;
      EXPECT_EQ(codes.successor(0, code, s), want) << p->format_state(s);
    }
  }
}

// Closure, convergence and environment actions share one budget of the
// state count, apart from the value tables', and take it in compile order:
// of three actions over both variables of a 4-state design only the first
// gets its table. Fault actions get none.
TEST(SpecTableTest, SuccessorTablesNeverOutgrowTheStateCount) {
  const CompiledSpec c = spec::compile_spec_text(R"({
    "schema": "nonmask-spec/1",
    "name": "budget",
    "variables": [
      {"name": "a", "min": 0, "max": 1},
      {"name": "b", "min": 0, "max": 1}
    ],
    "constraints": [{"name": "tie", "expr": "a == b"}],
    "actions": [
      {"name": "glitch", "kind": "fault", "guard": "a == b",
       "assign": {"a": "1 - a"}},
      {"name": "copy", "kind": "convergence", "guard": "a != b",
       "assign": {"a": "b"}, "constraint": "0"},
      {"name": "swap", "kind": "closure", "guard": "a == b",
       "assign": {"a": "1 - b", "b": "1 - a"}},
      {"name": "noise", "kind": "environment", "guard": "a != b",
       "assign": {"b": "a"}}
    ]
  })");
  const Program& p = c.design.program;
  ASSERT_EQ(p.num_actions(), 4u);
  EXPECT_EQ(p.action(0).successor_table(), nullptr);
  ASSERT_NE(p.action(1).successor_table(), nullptr);
  EXPECT_EQ(p.action(1).successor_table()->entries(), 4u);
  EXPECT_EQ(p.action(2).successor_table(), nullptr);
  EXPECT_EQ(p.action(3).successor_table(), nullptr);
  EXPECT_GT(c.tables->size(), 0u);
  expect_successor_tables_match_closures(c, "budget");
}

// The first lookups of a fresh design come from eight prefetch workers: at
// grain 64 the 93,312 codes of bfs-spanning-tree+env span 1,458 chunks, and
// every worker's copy of the successor source looks each table up for the
// first time concurrently. The reports equal the one-thread ones.
TEST(SpecTableTest, PrefetchWorkersTakeTheFirstLookupsAlike) {
  const std::string text = spec::emit_builtin_spec("bfs-spanning-tree+env");
  auto run = [&](unsigned threads, int pass) {
    const CompiledSpec c = spec::compile_spec_text(text);
    const Design& d = c.design;
    for (const Action& a : d.program.actions()) {
      if (a.successor_table() != nullptr) {
        EXPECT_FALSE(a.successor_table()->filled());
      }
    }
    const StateSpace space(d.program);
    store::StoreConfig config;
    config.threads = threads;
    config.grain = 64;
    std::string out;
    switch (pass) {
      case 0:
        out = render(store::check_convergence_via(config, space, d.S(),
                                                  d.T()));
        break;
      case 1:
        out = render(store::check_convergence_weakly_fair_via(
            config, space, d.S(), d.T()));
        break;
      default:
        out = render(store::verify_tolerance_via(config, space, d, true));
    }
    std::size_t filled = 0;
    for (const Action& a : d.program.actions()) {
      const auto& t = a.successor_table();
      filled += t != nullptr && t->filled() ? 1 : 0;
    }
    EXPECT_GT(filled, 0u);
    return out;
  };
  for (int pass = 0; pass < 3; ++pass) {
    SCOPED_TRACE(pass);
    EXPECT_EQ(run(8, pass), run(1, pass));
  }
}

TEST(SpecTableTest, ReadUnionKeepsFirstOccurrenceOrderPastItsScan) {
  // Forty distinct ids, each seen twice, in an order no sort recovers.
  std::vector<VarId> ids;
  for (std::uint32_t i = 0; i < 40; ++i) ids.push_back(VarId((i * 17) % 41));
  spec::ReadUnion u;
  u.add(ids);
  u.add(ids);
  u.add(VarId(41));
  std::vector<VarId> want = ids;
  want.push_back(VarId(41));
  EXPECT_EQ(u.take(), want);
}

}  // namespace
}  // namespace nonmask
