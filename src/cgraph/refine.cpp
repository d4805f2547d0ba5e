#include "cgraph/refine.hpp"

#include <algorithm>

#include "checker/preserves.hpp"
#include "graphlib/analysis.hpp"

namespace nonmask {

RestrictedGraph restrict_constraint_graph(const Design& design,
                                          const ConstraintGraph& cg,
                                          const PredicateFn& R,
                                          const StateSpace& space) {
  RestrictedGraph out;
  out.graph.node_vars = cg.node_vars;
  out.graph.var_node = cg.var_node;
  out.graph.graph.resize(cg.graph.num_nodes());
  for (int n = 0; n < cg.graph.num_nodes(); ++n) {
    out.graph.graph.set_node_label(n, cg.graph.node_label(n));
  }

  const PredicateFn& T = design.fault_span;
  for (int e = 0; e < cg.graph.num_edges(); ++e) {
    const auto& edge = cg.graph.edge(e);
    const auto idx = static_cast<std::size_t>(edge.payload);
    const int cid = design.program.action(idx).constraint_id();
    bool always_holds = false;
    if (cid >= 0 && static_cast<std::size_t>(cid) < design.invariant.size()) {
      const PredicateFn& c =
          design.invariant.at(static_cast<std::size_t>(cid)).fn;
      always_holds = !first_failure(space, [&](const State& s, State&) {
        return !(R(s) && T(s)) || c(s);
      });
    }
    if (always_holds) {
      out.dropped.push_back(idx);
    } else {
      out.graph.graph.add_edge(edge.from, edge.to, edge.payload);
      out.graph.actions.push_back(idx);
    }
  }
  return out;
}

std::optional<std::vector<std::vector<std::size_t>>> suggest_layers(
    const Design& design, const StateSpace& space) {
  const auto conv =
      design.program.actions_of_kind(ActionKind::kConvergence);
  const std::size_t k = conv.size();
  if (k == 0) return std::nullopt;

  // breaks[i][j]: action conv[i] can violate conv[j]'s constraint.
  std::vector<std::vector<bool>> breaks(k, std::vector<bool>(k, false));
  for (std::size_t i = 0; i < k; ++i) {
    const Action& a = design.program.action(conv[i]);
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) continue;
      const int cid = design.program.action(conv[j]).constraint_id();
      if (cid < 0 ||
          static_cast<std::size_t>(cid) >= design.invariant.size()) {
        return std::nullopt;  // unbound action: no layering derivable
      }
      const auto& c = design.invariant.at(static_cast<std::size_t>(cid));
      breaks[i][j] =
          !check_preserves(space, a, c.fn, design.fault_span).preserves;
    }
  }

  // SCC condensation of the breaks digraph (edge i -> j when i breaks j,
  // i.e. layer(i) <= layer(j)); components in topological order are the
  // layers.
  Digraph g(static_cast<int>(k));
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      if (breaks[i][j]) g.add_edge(static_cast<int>(i), static_cast<int>(j));
    }
  }
  const auto scc = tarjan_scc(g);

  // Within one component, mutual breaking across *different* target nodes
  // cannot be fixed by per-node linear orders: no layering exists here.
  const auto cg = infer_constraint_graph(design.program, conv);
  if (!cg.ok) return std::nullopt;
  auto target_node = [&](std::size_t i) {
    return cg.graph.node_of(design.program.action(conv[i]).writes().front());
  };
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) continue;
      if (scc.component[i] == scc.component[j] && breaks[i][j] &&
          target_node(i) != target_node(j)) {
        return std::nullopt;
      }
    }
  }

  // Tarjan emits components in reverse topological order of the
  // condensation; reversing gives sources (breakers) first = lowest layers.
  std::vector<std::vector<std::size_t>> layers(
      static_cast<std::size_t>(scc.num_components));
  for (std::size_t i = 0; i < k; ++i) {
    const auto comp = static_cast<std::size_t>(
        scc.num_components - 1 - scc.component[i]);
    layers[comp].push_back(conv[i]);
  }
  return layers;
}

}  // namespace nonmask
