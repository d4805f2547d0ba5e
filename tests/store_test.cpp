// Tests for the compact state store (src/store/): packed layouts, the
// interning arena, the sharded concurrent set, the compact bookkeeping
// containers, and the frontier engine against the serial reference
// implementations.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "checker/fault_span.hpp"
#include "checker/state_space.hpp"
#include "core/program.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/running_example.hpp"
#include "protocols/token_ring.hpp"
#include "store/arena.hpp"
#include "store/bitset.hpp"
#include "store/concurrent_set.hpp"
#include "store/config.hpp"
#include "store/frontier.hpp"
#include "store/odometer.hpp"
#include "store/packed.hpp"

namespace nonmask {
namespace {

Program small_program() {
  Program p("store-test");
  p.add_variable({"a", 0, 4});    // 5 values -> 3 bits
  p.add_variable({"b", -2, 1});   // 4 values -> 2 bits
  p.add_variable({"c", 7, 7});    // singleton -> 0 bits
  p.add_variable({"d", 0, 1});    // 2 values -> 1 bit
  return p;
}

// ---------------------------------------------------------------- layout

TEST(PackedLayoutTest, WidthsAreCeilLog2OfDomain) {
  const Program p = small_program();
  const store::PackedLayout layout(p);
  EXPECT_EQ(layout.width(0), 3u);
  EXPECT_EQ(layout.width(1), 2u);
  EXPECT_EQ(layout.width(2), 0u);
  EXPECT_EQ(layout.width(3), 1u);
  EXPECT_EQ(layout.total_bits(), 6u);
  EXPECT_EQ(layout.words(), 1u);
}

TEST(PackedLayoutTest, PackUnpackRoundTripsEveryState) {
  const Program p = small_program();
  const StateSpace space(p);
  const store::PackedLayout layout(p);
  std::vector<std::uint64_t> words(layout.words());
  State s(p.num_variables());
  State back(p.num_variables());
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    space.decode_into(code, s);
    layout.pack(s, words.data());
    layout.unpack(words.data(), back);
    ASSERT_EQ(s, back) << "code " << code;
  }
}

TEST(PackedLayoutTest, FieldsNeverStraddleWords) {
  // 3 x 30 bits cannot share two words without straddling; the layout must
  // pad so each field lives in one word.
  Program p("wide");
  p.add_variable({"x", 0, (1 << 30) - 1});
  p.add_variable({"y", 0, (1 << 30) - 1});
  p.add_variable({"z", 0, (1 << 30) - 1});
  const store::PackedLayout layout(p);
  EXPECT_EQ(layout.words(), 2u);

  State s(3);
  s.set(VarId(0), (1 << 30) - 1);
  s.set(VarId(1), 12345);
  s.set(VarId(2), (1 << 30) - 2);
  std::vector<std::uint64_t> words(layout.words());
  State back(3);
  layout.pack(s, words.data());
  layout.unpack(words.data(), back);
  EXPECT_EQ(s, back);
}

TEST(PackedLayoutTest, HashDependsOnSeedAndContent) {
  const Program p = small_program();
  const StateSpace space(p);
  const store::PackedLayout layout(p);
  std::vector<std::uint64_t> w0(layout.words()), w1(layout.words());
  State s(p.num_variables());
  space.decode_into(0, s);
  layout.pack(s, w0.data());
  space.decode_into(1, s);
  layout.pack(s, w1.data());

  EXPECT_NE(layout.hash(w0.data(), 1), layout.hash(w1.data(), 1));
  EXPECT_NE(layout.hash(w0.data(), 1), layout.hash(w0.data(), 2));
  EXPECT_EQ(layout.hash(w0.data(), 7), layout.hash(w0.data(), 7));
}

// ---------------------------------------------------------------- arena

TEST(PackedStateStoreTest, DenseIdsAndStablePointers) {
  store::PackedStateStore arena(2, /*slab_records=*/4);
  std::vector<const std::uint64_t*> ptrs;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const std::uint64_t rec[2] = {i, i * 1000};
    EXPECT_EQ(arena.intern(rec), i);
    ptrs.push_back(arena.get(i));
  }
  EXPECT_EQ(arena.size(), 40u);
  // Records never move: pointers taken before later slabs were appended
  // still read back the original words.
  for (std::uint64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(ptrs[i], arena.get(i));
    EXPECT_EQ(ptrs[i][0], i);
    EXPECT_EQ(ptrs[i][1], i * 1000);
  }
}

TEST(PackedStateStoreTest, SlabsAreCacheLineAligned) {
  store::PackedStateStore arena(1, /*slab_records=*/2);
  const std::uint64_t rec[1] = {42};
  for (int i = 0; i < 5; ++i) arena.intern(rec);
  for (std::uint64_t id = 0; id < 5; id += 2) {
    // First record of each slab starts the slab allocation.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arena.get(id)) % 64, 0u);
  }
}

// ------------------------------------------------------------- hash set

TEST(ConcurrentPackedSetTest, InsertFindAndDenseIdsWithOneShard) {
  const Program p = small_program();
  const StateSpace space(p);
  const store::PackedLayout layout(p);
  store::ConcurrentPackedSet set(layout, /*shard_bits=*/0, /*seed=*/1);

  std::vector<std::uint64_t> words(layout.words());
  State s(p.num_variables());
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    space.decode_into(code, s);
    layout.pack(s, words.data());
    const auto [id, fresh] = set.insert(words.data());
    EXPECT_TRUE(fresh);
    EXPECT_EQ(id, code);  // dense insertion-order ids with one shard
    const auto [id2, fresh2] = set.insert(words.data());
    EXPECT_FALSE(fresh2);
    EXPECT_EQ(id2, id);
    EXPECT_TRUE(equal(layout, set.get(id), words.data()));
  }
  EXPECT_EQ(set.size(), space.size());
}

TEST(ConcurrentPackedSetTest, ShardStatsAccountForEveryEntry) {
  const Program p = small_program();
  const StateSpace space(p);
  const store::PackedLayout layout(p);
  store::ConcurrentPackedSet set(layout, /*shard_bits=*/3, /*seed=*/99);
  EXPECT_EQ(set.shard_count(), 8u);

  std::vector<std::uint64_t> words(layout.words());
  State s(p.num_variables());
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    space.decode_into(code, s);
    layout.pack(s, words.data());
    set.insert(words.data());
  }
  std::uint64_t total = 0;
  for (const auto& st : set.shard_stats()) {
    total += st.size;
    EXPECT_GE(st.capacity, st.size);
  }
  EXPECT_EQ(total, space.size());
  EXPECT_EQ(set.size(), space.size());
}

TEST(ConcurrentPackedSetTest, GrowsPastInitialCapacity) {
  Program p("grow");
  p.add_variable({"x", 0, 9999});
  const StateSpace space(p);
  const store::PackedLayout layout(p);
  // Tiny expected size forces many grow() cycles.
  store::ConcurrentPackedSet set(layout, 0, 5, /*expected=*/4);
  std::vector<std::uint64_t> words(layout.words());
  State s(1);
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    space.decode_into(code, s);
    layout.pack(s, words.data());
    set.insert(words.data());
  }
  EXPECT_EQ(set.size(), space.size());
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    space.decode_into(code, s);
    layout.pack(s, words.data());
    EXPECT_TRUE(set.contains(words.data()));
  }
}

// This is the test the CI TSan job leans on: concurrent interning of
// overlapping key ranges from several threads must be race-free and lose
// no state.
TEST(ConcurrentPackedSetTest, ConcurrentInsertsAreRaceFreeAndComplete) {
  const Program p = small_program();
  const StateSpace space(p);
  const store::PackedLayout layout(p);
  store::ConcurrentPackedSet set(layout, /*shard_bits=*/4, /*seed=*/7);

  constexpr unsigned kThreads = 8;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<std::uint64_t> words(layout.words());
      State s(p.num_variables());
      // Every thread inserts the full space, offset so threads collide on
      // different codes at different times.
      for (std::uint64_t i = 0; i < space.size(); ++i) {
        const std::uint64_t code = (i + t * 13) % space.size();
        space.decode_into(code, s);
        layout.pack(s, words.data());
        const auto [id, fresh] = set.insert(words.data());
        ASSERT_TRUE(equal(layout, set.get(id), words.data()));
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(set.size(), space.size());
  std::set<std::uint64_t> ids;
  std::vector<std::uint64_t> words(layout.words());
  State s(p.num_variables());
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    space.decode_into(code, s);
    layout.pack(s, words.data());
    const auto id = set.find(words.data());
    ASSERT_TRUE(id.has_value());
    ids.insert(*id);
  }
  EXPECT_EQ(ids.size(), space.size());  // ids are distinct
}

// ------------------------------------------------------------ bit arrays

TEST(TwoBitArrayTest, HoldsAllFourValuesWithoutNeighborInterference) {
  store::TwoBitArray arr(100);
  for (std::uint64_t i = 0; i < 100; ++i) {
    arr.set(i, static_cast<std::uint8_t>(i % 4));
  }
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(arr[i], i % 4) << i;
  }
  arr.set(33, 3);
  arr.set(33, 0);
  EXPECT_EQ(arr[33], 0);
  EXPECT_EQ(arr[32], 0u);
  EXPECT_EQ(arr[34], 2u);
}

// -------------------------------------------------------------- odometer

TEST(OdometerCursorTest, MatchesDecodeForEveryCode) {
  const Program p = small_program();
  const StateSpace space(p);
  store::OdometerCursor cur(space, 0);
  State expect(p.num_variables());
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    space.decode_into(code, expect);
    ASSERT_EQ(cur.code(), code);
    ASSERT_EQ(cur.state(), expect) << "code " << code;
    if (code + 1 < space.size()) cur.advance();
  }
}

TEST(OdometerCursorTest, StartsMidRange) {
  const Program p = small_program();
  const StateSpace space(p);
  const std::uint64_t start = space.size() / 2;
  store::OdometerCursor cur(space, start);
  EXPECT_EQ(cur.code(), start);
  EXPECT_EQ(cur.state(), space.decode(start));
  cur.advance();
  EXPECT_EQ(cur.state(), space.decode(start + 1));
}

// -------------------------------------------------------------- frontier

store::StoreConfig engine_config(unsigned threads) {
  store::StoreConfig cfg;
  cfg.threads = threads;
  cfg.grain = 64;  // small grain so the tiny spaces exercise many chunks
  cfg.shard_bits = 2;
  return cfg;
}

void expect_same_set(const StateSet& a, const StateSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::uint64_t code = 0; code < a.space().size(); ++code) {
    ASSERT_EQ(a.contains_code(code), b.contains_code(code)) << "code " << code;
  }
}

TEST(FrontierEngineTest, ReachableMatchesSerialReference) {
  const auto dd = make_diffusing(RootedTree::balanced(3, 2), true);
  const StateSpace space(dd.design.program);
  const auto actions = non_fault_actions(dd.design.program);
  const StateSet expect =
      compute_reachable(space, dd.design.S(), actions);
  // The seeded entry point from one code is the serial BFS from a
  // one-state start predicate, and its levels hand over every other state.
  const std::uint64_t seed = space.size() - 1;
  const StateSet expect_seeded = compute_reachable(
      space, [&](const State& s) { return space.encode(s) == seed; },
      actions);
  ASSERT_GT(expect_seeded.size(), 1u);

  for (unsigned threads : {1u, 2u, 8u}) {
    store::FrontierEngine engine(space, engine_config(threads));
    const StateSet got = engine.reachable(dd.design.S(), actions);
    expect_same_set(expect, got);

    std::vector<std::uint64_t> handed;
    const StateSet seeded = engine.reachable_from(
        {seed}, actions, [&](const std::vector<std::uint64_t>& level) {
          ASSERT_FALSE(level.empty());
          handed.insert(handed.end(), level.begin(), level.end());
        });
    expect_same_set(expect_seeded, seeded);
    EXPECT_EQ(handed.size() + 1, seeded.size());
    for (std::uint64_t code : handed) {
      EXPECT_NE(code, seed);
      EXPECT_TRUE(seeded.contains_code(code));
    }
  }
}

TEST(FrontierEngineTest, ReachableHonorsMaxStatesCapIdentically) {
  const auto dd = make_diffusing(RootedTree::balanced(3, 2), true);
  const StateSpace space(dd.design.program);
  const auto actions = non_fault_actions(dd.design.program);
  FaultSpanOptions opts;
  opts.max_states = 37;
  const StateSet expect =
      compute_reachable(space, dd.design.S(), actions, opts);

  for (unsigned threads : {1u, 4u}) {
    store::FrontierEngine engine(space, engine_config(threads));
    const StateSet got = engine.reachable(dd.design.S(), actions, opts);
    expect_same_set(expect, got);
  }
}

TEST(FrontierEngineTest, FaultSpanMatchesSerialReference) {
  const auto dd = make_dijkstra_ring(3, 4);
  const StateSpace space(dd.design.program);
  const auto faults = dd.design.program.actions_of_kind(ActionKind::kFault);
  const StateSet expect = compute_fault_span(space, dd.design.S(), faults);

  auto actions = non_fault_actions(dd.design.program);
  actions.insert(actions.end(), faults.begin(), faults.end());
  store::FrontierEngine engine(space, engine_config(2));
  const StateSet got = engine.reachable(dd.design.S(), actions);
  expect_same_set(expect, got);
}

TEST(StoreConfigTest, FromEnvParsesBudget) {
  ::setenv("NONMASK_STATE_BUDGET", "123456", 1);
  EXPECT_EQ(store::StoreConfig::from_env().budget, 123456u);
  ::unsetenv("NONMASK_STATE_BUDGET");
  EXPECT_EQ(store::StoreConfig::from_env().budget, 32'000'000u);
}

}  // namespace
}  // namespace nonmask
