// Property tests for multi-word packed records: a protocol whose variables
// exceed 64 packed bits (graph coloring on a 33-cycle — 33 x 2 bits = 66)
// must round-trip through PackedLayout pack/unpack, StateSpace
// encode/decode, and OdometerCursor ripple decoding, intern into the
// sharded concurrent set, and run on the compact falsification paths.
// These spaces (3^33 ≈ 5.6e15 codes) are far beyond exhaustive checking,
// so coverage is randomized round-trips, bounded compact runs, and the
// engine's refusal past its u32 visit-id range.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "checker/falsify.hpp"
#include "checker/state_space.hpp"
#include "core/program.hpp"
#include "graphlib/topology.hpp"
#include "protocols/coloring.hpp"
#include "store/concurrent_set.hpp"
#include "store/facade.hpp"
#include "store/odometer.hpp"
#include "store/packed.hpp"
#include "util/rng.hpp"

namespace nonmask {
namespace {

constexpr int kNodes = 33;  // 33 x 2 bits = 66 packed bits -> 2 words
constexpr std::uint64_t kBudget = 6'000'000'000'000'000ULL;  // > 3^33

ColoringDesign multiword_design() {
  return make_coloring(UndirectedGraph::cycle(kNodes));
}

std::uint64_t pow3(int e) {
  std::uint64_t r = 1;
  for (int i = 0; i < e; ++i) r *= 3;
  return r;
}

State random_state(const Program& p, Rng& rng) {
  State s(p.num_variables());
  for (std::size_t i = 0; i < p.num_variables(); ++i) {
    const VariableSpec& spec = p.variable(VarId(static_cast<std::uint32_t>(i)));
    s.values()[i] = static_cast<Value>(
        spec.lo + static_cast<Value>(rng() % spec.domain_size()));
  }
  return s;
}

TEST(StoreMultiwordTest, LayoutSpansTwoWordsWithoutStraddling) {
  const auto cd = multiword_design();
  const store::PackedLayout layout(cd.design.program);
  EXPECT_EQ(layout.total_bits(), 66u);
  EXPECT_EQ(layout.words(), 2u);
  for (std::size_t i = 0; i < cd.design.program.num_variables(); ++i) {
    EXPECT_EQ(layout.width(i), 2u);
  }
}

TEST(StoreMultiwordTest, PackUnpackRoundTripsRandomStates) {
  const auto cd = multiword_design();
  const Program& p = cd.design.program;
  const store::PackedLayout layout(p);
  std::vector<std::uint64_t> words(layout.words());
  State back(p.num_variables());
  Rng rng(0x66b175);
  for (int trial = 0; trial < 1000; ++trial) {
    const State s = random_state(p, rng);
    layout.pack(s, words.data());
    layout.unpack(words.data(), back);
    ASSERT_EQ(back, s);
  }
}

TEST(StoreMultiwordTest, EncodeDecodeRoundTripsBeyondU32Codes) {
  const auto cd = multiword_design();
  ASSERT_EQ(cd.design.program.state_count().value_or(0), pow3(kNodes));
  const StateSpace space(cd.design.program, kBudget);
  ASSERT_EQ(space.size(), pow3(kNodes));
  State s(cd.design.program.num_variables());
  Rng rng(0xdec0de);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::uint64_t code = rng() % space.size();
    space.decode_into(code, s);
    EXPECT_EQ(space.encode(s), code);
  }
}

TEST(StoreMultiwordTest, OdometerMatchesDecodeAcrossWordBoundary) {
  const auto cd = multiword_design();
  const StateSpace space(cd.design.program, kBudget);
  State expect(cd.design.program.num_variables());
  Rng rng(0x0d03);
  for (int trial = 0; trial < 20; ++trial) {
    // Ranges crossing many ripple carries, including runs near the top.
    const std::uint64_t base =
        trial == 0 ? space.size() - 600 : rng() % (space.size() - 600);
    store::OdometerCursor cur(space, base);
    for (std::uint64_t off = 0; off < 500; ++off) {
      ASSERT_EQ(cur.code(), base + off);
      space.decode_into(base + off, expect);
      ASSERT_EQ(cur.state(), expect);
      cur.advance();
    }
  }
}

TEST(StoreMultiwordTest, ConcurrentSetInternsTwoWordRecords) {
  const auto cd = multiword_design();
  const Program& p = cd.design.program;
  const store::PackedLayout layout(p);
  store::ConcurrentPackedSet set(layout, /*shard_bits=*/4, /*seed=*/42);

  std::vector<std::uint64_t> words(layout.words());
  std::vector<State> states;
  std::vector<std::uint64_t> ids;
  Rng rng(0x5e7);
  for (int i = 0; i < 2000; ++i) {
    const State s = random_state(p, rng);
    layout.pack(s, words.data());
    const auto [id, fresh] = set.insert(words.data());
    if (fresh) {
      states.push_back(s);
      ids.push_back(id);
    }
  }
  ASSERT_GT(states.size(), 1900u);  // collisions in 3^33 are negligible
  EXPECT_EQ(set.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    layout.pack(states[i], words.data());
    const auto found = set.find(words.data());
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, ids[i]);
    EXPECT_TRUE(equal(layout, set.get(ids[i]), words.data()));
    const auto [id2, fresh2] = set.insert(words.data());
    EXPECT_FALSE(fresh2);
    EXPECT_EQ(id2, ids[i]);
  }
}

TEST(StoreMultiwordTest, CompactFalsificationPathsRunOnTwoWordRecords) {
  const auto cd = multiword_design();

  // Random-walk falsification interns every visited state as a two-word
  // packed record; the coloring protocol self-stabilizes, so no violation.
  FalsifyOptions fopts;
  fopts.walks = 5;
  fopts.max_walk_length = 300;
  const FalsifyResult walks = falsify_convergence(cd.design, fopts);
  EXPECT_FALSE(walks.violated);
  EXPECT_EQ(walks.walks_run, 5u);
  EXPECT_GT(walks.steps_taken, 0u);

  // Bounded DFS probe from a maximally conflicted start (all nodes share
  // one color) — dense sidecar ids over two-word records.
  State start(cd.design.program.num_variables());
  for (Value& v : start.values()) v = 0;
  ProbeOptions popts;
  popts.max_states = 512;
  const FalsifyResult probe = probe_violation_from(cd.design, start, popts);
  EXPECT_FALSE(probe.violated);
}

TEST(StoreMultiwordTest, VisitIdRangeErrorNamesOversizedSpaces) {
  // 3^33 codes exceed the u32 visit ids of the Tarjan bookkeeping: the
  // weakly-fair passes refuse up front with a named error instead of
  // allocating anything.
  const auto cd = multiword_design();
  const StateSpace space(cd.design.program, kBudget);
  const store::StoreConfig cfg;
  try {
    store::check_convergence_weakly_fair_via(cfg, space, cd.design.S(),
                                             cd.design.T());
    FAIL() << "expected VisitIdRangeExceeded";
  } catch (const store::VisitIdRangeExceeded& e) {
    EXPECT_EQ(e.states(), pow3(kNodes));
    EXPECT_NE(std::string(e.what()).find("u32 visit-id range"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(store::verify_tolerance_via(cfg, space, cd.design,
                                          /*weakly_fair=*/true),
               store::VisitIdRangeExceeded);
}

}  // namespace
}  // namespace nonmask
