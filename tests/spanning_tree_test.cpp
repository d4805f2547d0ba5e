// Extension protocol: stabilizing BFS spanning tree. Exhaustive
// stabilization on small graphs, correct distances and parents at scale,
// and the methodology boundary: its constraint graph is cyclic, so
// Theorems 1-2 refuse to apply even though the protocol converges.
#include <gtest/gtest.h>

#include <queue>

#include "cgraph/theorems.hpp"
#include "checker/closure_check.hpp"
#include "checker/convergence_check.hpp"
#include "checker/state_space.hpp"
#include "engine/simulator.hpp"
#include "protocols/spanning_tree.hpp"
#include "sched/daemons.hpp"

namespace nonmask {
namespace {

std::vector<int> bfs_distances(const UndirectedGraph& g, int root) {
  std::vector<int> dist(static_cast<std::size_t>(g.size()), -1);
  std::queue<int> q;
  dist[static_cast<std::size_t>(root)] = 0;
  q.push(root);
  while (!q.empty()) {
    const int v = q.front();
    q.pop();
    for (int w : g.neighbors(v)) {
      if (dist[static_cast<std::size_t>(w)] == -1) {
        dist[static_cast<std::size_t>(w)] = dist[static_cast<std::size_t>(v)] + 1;
        q.push(w);
      }
    }
  }
  return dist;
}

TEST(SpanningTreeTest, StabilizesExhaustivelyOnSmallGraphs) {
  for (const auto& g :
       {UndirectedGraph::path(4), UndirectedGraph::cycle(4),
        UndirectedGraph::complete(4), UndirectedGraph::grid(2, 2)}) {
    const auto st = make_spanning_tree(g, 0);
    StateSpace space(st.design.program);
    EXPECT_TRUE(check_closed(space, st.design.S()).closed);
    const auto report = check_convergence(space, st.design.S(), st.design.T());
    EXPECT_EQ(report.verdict, ConvergenceVerdict::kConverges)
        << "graph with " << g.size() << " nodes, " << g.num_edges()
        << " edges";
  }
}

TEST(SpanningTreeTest, FixpointIsTrueBfsDistances) {
  Rng rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    const auto g = UndirectedGraph::random_connected(12, 6, rng);
    const auto st = make_spanning_tree(g, 0);
    RandomDaemon d(55);
    Rng start_rng(trial);
    const auto r = converge(st.design,
                            st.design.program.random_state(start_rng), d);
    ASSERT_TRUE(r.converged);
    const auto expected = bfs_distances(g, 0);
    for (int j = 0; j < g.size(); ++j) {
      EXPECT_EQ(r.final_state.get(st.dist[static_cast<std::size_t>(j)]),
                expected[static_cast<std::size_t>(j)])
          << "node " << j;
    }
  }
}

TEST(SpanningTreeTest, ExtractedParentsFormTree) {
  Rng rng(29);
  const auto g = UndirectedGraph::random_connected(20, 10, rng);
  const auto st = make_spanning_tree(g, 0);
  RandomDaemon d(3);
  Rng start_rng(7);
  const auto r =
      converge(st.design, st.design.program.random_state(start_rng), d);
  ASSERT_TRUE(r.converged);
  const auto parents = st.extract_parents(g, r.final_state);
  // RootedTree's constructor validates tree-ness.
  const RootedTree tree(parents);
  EXPECT_EQ(tree.root(), 0);
  // Tree edges are graph edges.
  for (int j = 1; j < g.size(); ++j) {
    const auto& nbrs = g.neighbors(j);
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), tree.parent(j)),
              nbrs.end());
  }
}

TEST(SpanningTreeTest, ConvergesAtScale) {
  Rng rng(31);
  const auto g = UndirectedGraph::random_connected(300, 200, rng);
  const auto st = make_spanning_tree(g, 0);
  RandomDaemon d(13);
  Rng start_rng(17);
  RunOptions opts;
  opts.max_steps = 2'000'000;
  const auto r = converge(
      st.design, st.design.program.random_state(start_rng), d, opts);
  EXPECT_TRUE(r.converged);
}

TEST(SpanningTreeTest, CyclicConstraintGraphDefeatsTheorems1And2) {
  // On a cycle, neighbors read each other: the inferred constraint graph
  // has a proper cycle, so the structural theorems do not apply — yet the
  // exact checker (above) proves convergence. This is the Section 7
  // motivation for refined analyses.
  const auto g = UndirectedGraph::cycle(4);
  const auto st = make_spanning_tree(g, 0);
  StateSpace space(st.design.program);
  const auto report = validate_design(st.design, space);
  EXPECT_FALSE(report.applies);
}

TEST(SpanningTreeTest, RootValidation) {
  const auto g = UndirectedGraph::path(3);
  EXPECT_THROW(make_spanning_tree(g, -1), std::invalid_argument);
  EXPECT_THROW(make_spanning_tree(g, 3), std::invalid_argument);
}

}  // namespace
}  // namespace nonmask
