// E7 (cost side) — what mechanical theorem validation costs.
//
// Series regenerated (every obligation is discharged at every state of the
// design's state space):
//   * Theorem 1 validation time vs tree size (diffusing trees);
//   * Theorem 3 validation on the layered token ring and coloring;
//   * constraint-graph inference time vs action count.
#include <benchmark/benchmark.h>

#include "bench_report.hpp"

#include "cgraph/theorems.hpp"
#include "checker/state_space.hpp"
#include "protocols/coloring.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/token_ring.hpp"

using namespace nonmask;

namespace {

void BM_Theorem1Exhaustive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto dd = make_diffusing(RootedTree::balanced(n, 2), false);
  StateSpace space(dd.design.program);
  const auto cg = infer_constraint_graph(dd.design.program);
  double obligations = 0;
  for (auto _ : state) {
    const auto report = validate_theorem1(dd.design, cg.graph, space);
    benchmark::DoNotOptimize(report.applies);
    obligations = static_cast<double>(report.obligations.size());
  }
  state.counters["N"] = n;
  state.counters["states"] = static_cast<double>(space.size());
  state.counters["obligations"] = obligations;
}

void BM_Theorem3TokenRing(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto tr = make_token_ring_bounded(n, 3, false);
  StateSpace space(tr.design.program);
  for (auto _ : state) {
    const auto report = validate_theorem3(tr.design, tr.layers, space);
    benchmark::DoNotOptimize(report.applies);
  }
  state.counters["N"] = n;
}

void BM_Theorem3Coloring(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  const auto cd = make_coloring(UndirectedGraph::random_connected(n, n, rng));
  StateSpace space(cd.design.program);
  for (auto _ : state) {
    const auto report = validate_theorem3(cd.design, cd.layers, space);
    benchmark::DoNotOptimize(report.applies);
  }
  state.counters["N"] = n;
  state.counters["states"] = static_cast<double>(space.size());
  state.counters["layers"] = static_cast<double>(cd.layers.size());
}

void BM_GraphInference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto dd = make_diffusing(RootedTree::balanced(n, 2), false);
  for (auto _ : state) {
    const auto cg = infer_constraint_graph(dd.design.program);
    benchmark::DoNotOptimize(cg.ok);
  }
  state.counters["actions"] =
      static_cast<double>(dd.design.program.num_actions());
}

}  // namespace

BENCHMARK(BM_Theorem1Exhaustive)->Arg(4)->Arg(5)->Arg(6)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Theorem3TokenRing)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Theorem3Coloring)->Arg(4)->Arg(5)->Arg(6)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GraphInference)->Arg(15)->Arg(127)->Arg(1023);

NONMASK_BENCHMARK_MAIN("bench_theorems");
