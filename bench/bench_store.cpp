// Store subsystem throughput: packed interning into the sharded concurrent
// set, frontier-engine reachability, and end-to-end checker-engine
// convergence checking as the ring grows. Counters carry the numbers the
// scaling claims rest on — states/sec, peak RSS, and shard occupancy
// balance — and CI uploads the --benchmark_out JSON (BENCH_store.json).
// Every row may run worker threads, so rates are over wall time
// (UseRealTime), not the benchmark thread's CPU time.
//
// The 10^8-state acceptance run is not a benchmark (it takes minutes, not
// milliseconds); EXPERIMENTS.md E13 holds that recipe. Sizes here are
// chosen to finish in seconds while still crossing slab, grow, and
// multi-level-frontier boundaries.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_report.hpp"

#include "checker/state_space.hpp"
#include "obs/rss.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/token_ring.hpp"
#include "store/concurrent_set.hpp"
#include "store/facade.hpp"
#include "store/frontier.hpp"
#include "store/packed.hpp"

using namespace nonmask;
using obs::peak_rss_mb;

namespace {

/// max/mean occupancy across shards — 1.0 is a perfectly balanced hash.
double shard_imbalance(const store::ConcurrentPackedSet& set) {
  const auto stats = set.shard_stats();
  std::uint64_t total = 0, peak = 0;
  for (const auto& s : stats) {
    total += s.size;
    peak = std::max(peak, s.size);
  }
  if (total == 0) return 1.0;
  return static_cast<double>(peak) * stats.size() /
         static_cast<double>(total);
}

store::StoreConfig store_config(unsigned threads) {
  store::StoreConfig cfg;
  cfg.threads = threads;
  return cfg;
}

// Interning throughput: every state of the ring packed and inserted from
// `threads` workers splitting the code range.
void BM_ConcurrentSetInsert(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  const auto tr = make_dijkstra_ring(6, 8);  // 8^6 = 262'144 states
  const StateSpace space(tr.design.program);
  const store::PackedLayout layout(tr.design.program);

  std::uint64_t inserted = 0;
  for (auto _ : state) {
    store::ConcurrentPackedSet set(layout, /*shard_bits=*/6, /*seed=*/1,
                                   space.size());
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        // First-touch shard affinity: worker t materializes its contiguous
        // shard range so those pages fault in on its NUMA node.
        const unsigned shards = set.shard_count();
        for (unsigned i = shards * t / threads;
             i < shards * (t + 1) / threads; ++i) {
          set.touch(i);
        }
        const std::uint64_t lo = space.size() * t / threads;
        const std::uint64_t hi = space.size() * (t + 1) / threads;
        std::vector<std::uint64_t> words(layout.words());
        State s(space.program().num_variables());
        for (std::uint64_t code = lo; code < hi; ++code) {
          space.decode_into(code, s);
          layout.pack(s, words.data());
          set.insert(words.data());
        }
      });
    }
    for (auto& w : workers) w.join();
    inserted += set.size();
    state.counters["shard_imbalance"] = shard_imbalance(set);
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(inserted), benchmark::Counter::kIsRate);
  state.counters["peak_rss_mb"] = peak_rss_mb();
}

// Frontier-engine BFS over the full reachable set of the diffusing tree.
void BM_FrontierReachable(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto dd = make_diffusing(RootedTree::balanced(n, 2), true);
  const StateSpace space(dd.design.program);
  const auto actions = non_fault_actions(dd.design.program);
  const auto S = dd.design.S();

  std::uint64_t expanded = 0;
  for (auto _ : state) {
    store::FrontierEngine engine(space, store_config(0));
    const StateSet reach = engine.reachable(S, actions);
    benchmark::DoNotOptimize(reach.size());
    expanded += engine.stats().expanded;
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(expanded), benchmark::Counter::kIsRate);
  state.counters["space"] = static_cast<double>(space.size());
  state.counters["peak_rss_mb"] = peak_rss_mb();
}

// End-to-end convergence check through the checker engine; states/s counts
// every code swept (flags pass + DFS region).
void BM_StoreConvergence(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto tr = make_dijkstra_ring(n, n + 1);
  const StateSpace space(tr.design.program);
  const auto S = tr.design.S();
  const auto T = tr.design.T();
  const auto cfg = store_config(0);

  std::uint64_t states = 0;
  for (auto _ : state) {
    const auto report = store::check_convergence_via(cfg, space, S, T);
    benchmark::DoNotOptimize(report.verdict);
    states += space.size();
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
  state.counters["space"] = static_cast<double>(space.size());
  state.counters["peak_rss_mb"] = peak_rss_mb();
}

// Weakly-fair (Tarjan/SCC) convergence through the engine's compact
// bookkeeping.
void BM_StoreFairConvergence(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto tr = make_dijkstra_ring(n, n + 1);
  const StateSpace space(tr.design.program);
  const auto S = tr.design.S();
  const auto T = tr.design.T();
  const auto cfg = store_config(0);

  std::uint64_t states = 0;
  for (auto _ : state) {
    const auto report =
        store::check_convergence_weakly_fair_via(cfg, space, S, T);
    benchmark::DoNotOptimize(report.verdict);
    states += space.size();
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
  state.counters["space"] = static_cast<double>(space.size());
  state.counters["peak_rss_mb"] = peak_rss_mb();
}

}  // namespace

BENCHMARK(BM_ConcurrentSetInsert)->Arg(1)->Arg(2)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FrontierReachable)->Arg(5)->Arg(9)
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StoreConvergence)->Arg(4)->Arg(6)
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StoreFairConvergence)->Arg(4)->Arg(6)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

NONMASK_BENCHMARK_MAIN("bench_store");
