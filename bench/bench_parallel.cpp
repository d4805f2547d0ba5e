// Serial-vs-N-thread throughput of the parallel passes: the checker
// engine's closure, convergence and fault-span passes on the token-ring and
// diffusing designs, and campaign trial throughput. The thread count is the
// benchmark argument (the prefetch-cap rows take the ring's K instead), so
// `--benchmark_filter=Engine` prints a direct scaling table. Workers run
// off the benchmark's thread, so rates are over wall time (UseRealTime).
#include <benchmark/benchmark.h>

#include "bench_report.hpp"

#include "checker/state_space.hpp"
#include "engine/experiment.hpp"
#include "parallel/campaign.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/token_ring.hpp"
#include "store/facade.hpp"

using namespace nonmask;

namespace {

/// 16k-state chunks, so the 6^6 token ring spans several of them.
store::StoreConfig engine_config(std::int64_t threads) {
  store::StoreConfig config;
  config.threads = static_cast<unsigned>(threads);
  config.grain = 1 << 14;
  return config;
}

void BM_EngineClosureTokenRing(benchmark::State& state) {
  const auto tr = make_dijkstra_ring(7, 8);  // 8^7 = 2M states
  StateSpace space(tr.design.program);
  const auto S = tr.design.S();
  std::uint64_t states = 0;
  for (auto _ : state) {
    const auto report =
        store::check_closed_via(engine_config(state.range(0)), space, S);
    benchmark::DoNotOptimize(report.closed);
    states += space.size();
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(state.range(0));
}

void BM_EngineClosureDiffusing(benchmark::State& state) {
  const auto dd = make_diffusing(RootedTree::balanced(10, 2), true);
  StateSpace space(dd.design.program);
  const auto S = dd.design.S();
  std::uint64_t states = 0;
  for (auto _ : state) {
    const auto report =
        store::check_closed_via(engine_config(state.range(0)), space, S);
    benchmark::DoNotOptimize(report.closed);
    states += space.size();
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(state.range(0));
}

using ConvergencePass = ConvergenceReport (*)(const store::StoreConfig&,
                                             const StateSpace&,
                                             const PredicateFn&,
                                             const PredicateFn&);

void ring_convergence(benchmark::State& state, int nodes, int k,
                      const store::StoreConfig& config, ConvergencePass pass) {
  const auto tr = make_dijkstra_ring(nodes, k);
  StateSpace space(tr.design.program);
  const auto S = tr.design.S();
  const auto T = tr.design.T();
  std::uint64_t transitions = 0;
  for (auto _ : state) {
    const auto report = pass(config, space, S, T);
    benchmark::DoNotOptimize(report.verdict);
    transitions += report.transitions;
  }
  state.counters["transitions/s"] = benchmark::Counter(
      static_cast<double>(transitions), benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(config.threads);
}

// 6^6 = 46656 states in three chunks: one thread generates successors
// inside the traversal, two or more prefetch them in parallel first.
void BM_EngineConvergenceTokenRing(benchmark::State& state) {
  ring_convergence(state, 6, 6, engine_config(state.range(0)),
                   &store::check_convergence_via);
}

void BM_EngineFairConvergenceTokenRing(benchmark::State& state) {
  ring_convergence(state, 6, 6, engine_config(state.range(0)),
                   &store::check_convergence_weakly_fair_via);
}

// Seven-process rings on either side of the prefetch cap (2^22 states) at
// four threads and the default grain: K=8 (2.1M states) prefetches, K=9
// (4.8M states) generates successors inside the serial traversal and keeps
// the engine's ~2.5 bytes per state.
void BM_EnginePrefetchCapTokenRing(benchmark::State& state) {
  store::StoreConfig config;
  config.threads = 4;
  ring_convergence(state, 7, static_cast<int>(state.range(0)), config,
                   &store::check_convergence_via);
}

void BM_EngineFaultSpanDiffusing(benchmark::State& state) {
  const auto dd = make_diffusing(RootedTree::balanced(9, 2), true);
  StateSpace space(dd.design.program);
  const auto S = dd.design.S();
  for (auto _ : state) {
    const auto span = store::compute_fault_span_via(
        engine_config(state.range(0)), space, S, {});
    benchmark::DoNotOptimize(span.size());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}

void BM_CampaignTokenRing(benchmark::State& state) {
  const auto tr = make_dijkstra_ring(24, 25);
  ConvergenceExperiment config;
  config.trials = 64;
  config.seed = 1;
  config.max_steps = 2'000'000;
  CampaignOptions opts;
  opts.threads = static_cast<unsigned>(state.range(0));
  std::uint64_t trials = 0;
  for (auto _ : state) {
    const auto results = run_campaign(tr.design, config, opts);
    benchmark::DoNotOptimize(results.aggregate.converged_fraction);
    benchmark::DoNotOptimize(results.aggregate.steps.stddev);
    trials += config.trials;
  }
  state.counters["trials/s"] = benchmark::Counter(
      static_cast<double>(trials), benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(state.range(0));
}

void BM_CampaignDiffusing(benchmark::State& state) {
  const auto dd = make_diffusing(RootedTree::balanced(31, 2), true);
  ConvergenceExperiment config;
  config.trials = 64;
  config.seed = 1;
  config.max_steps = 2'000'000;
  CampaignOptions opts;
  opts.threads = static_cast<unsigned>(state.range(0));
  std::uint64_t trials = 0;
  for (auto _ : state) {
    const auto results = run_campaign(dd.design, config, opts);
    benchmark::DoNotOptimize(results.aggregate.converged_fraction);
    trials += config.trials;
  }
  state.counters["trials/s"] = benchmark::Counter(
      static_cast<double>(trials), benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(state.range(0));
}

}  // namespace

BENCHMARK(BM_EngineClosureTokenRing)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineClosureDiffusing)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineConvergenceTokenRing)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineFairConvergenceTokenRing)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EnginePrefetchCapTokenRing)->Arg(8)->Arg(9)
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineFaultSpanDiffusing)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CampaignTokenRing)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CampaignDiffusing)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

NONMASK_BENCHMARK_MAIN("bench_parallel");
