#include "cgraph/certify.hpp"

#include <algorithm>
#include <string>

#include "cgraph/classify.hpp"
#include "checker/preserves.hpp"

namespace nonmask {

namespace {

/// Re-check a Theorem-3 layer certificate independently of the validator:
/// the layers must partition the design's convergence actions into bound
/// actions, each layer's own constraint graph must have no cycle of length
/// > 1, and the cross-layer preserves-obligations must re-verify under the
/// layer context (lower layers' constraints hold, S does not yet hold,
/// within the fault-span).
void audit_layers(const Design& design, const TheoremReport& report,
                  const StateSpace& space,
                  std::vector<std::string>& problems) {
  const auto conv = design.program.actions_of_kind(ActionKind::kConvergence);
  std::vector<std::size_t> listed;
  for (const auto& layer : report.layers) {
    listed.insert(listed.end(), layer.begin(), layer.end());
  }
  auto sorted_conv = conv;
  auto sorted_listed = listed;
  std::sort(sorted_conv.begin(), sorted_conv.end());
  std::sort(sorted_listed.begin(), sorted_listed.end());
  if (sorted_listed != sorted_conv) {
    problems.push_back(
        "layers are not a partition of the convergence actions");
    return;
  }

  // Constraints established by each layer.
  std::vector<std::vector<const Constraint*>> layer_constraints;
  for (const auto& layer : report.layers) {
    std::vector<const Constraint*> cs;
    for (std::size_t ai : layer) {
      const int cid = design.program.action(ai).constraint_id();
      if (cid < 0 ||
          static_cast<std::size_t>(cid) >= design.invariant.size()) {
        problems.push_back("layered action '" +
                           design.program.action(ai).name() +
                           "' has no constraint binding");
        return;
      }
      cs.push_back(&design.invariant.at(static_cast<std::size_t>(cid)));
    }
    layer_constraints.push_back(std::move(cs));
  }

  const PredicateFn not_S = p_not(design.S());

  for (std::size_t l = 0; l < report.layers.size(); ++l) {
    // Shape: the layer's own constraint graph admits no cycle of length
    // > 1 (the Theorem 2 antecedent each layer must satisfy).
    const auto cg_l = infer_constraint_graph(design.program, report.layers[l]);
    if (!cg_l.ok) {
      problems.push_back("layer " + std::to_string(l) +
                         ": constraint graph construction failed");
      continue;
    }
    if (classify(cg_l.graph) == GraphShape::kCyclic) {
      problems.push_back("layer " + std::to_string(l) +
                         ": constraint graph has a cycle of length > 1");
    }

    // Context of layer l: lower layers' constraints hold, ¬S, within T.
    std::vector<PredicateFn> ctx{design.fault_span, not_S};
    for (std::size_t k = 0; k < l; ++k) {
      for (const Constraint* c : layer_constraints[k]) ctx.push_back(c->fn);
    }
    const PredicateFn context = p_all(ctx);

    // Closure actions preserve this layer's constraints under context.
    for (std::size_t ai = 0; ai < design.program.num_actions(); ++ai) {
      const Action& a = design.program.action(ai);
      if (a.kind() != ActionKind::kClosure) continue;
      for (const Constraint* c : layer_constraints[l]) {
        if (!check_preserves(space, a, c->fn, context).preserves) {
          problems.push_back("layer " + std::to_string(l) +
                             ": closure action '" + a.name() +
                             "' does not preserve constraint '" + c->name +
                             "' under the layer context");
        }
      }
    }
    // Higher-layer convergence actions preserve this layer's constraints.
    for (std::size_t h = l + 1; h < report.layers.size(); ++h) {
      for (std::size_t ai : report.layers[h]) {
        const Action& a = design.program.action(ai);
        for (const Constraint* c : layer_constraints[l]) {
          if (!check_preserves(space, a, c->fn, context).preserves) {
            problems.push_back(
                "layer " + std::to_string(h) + " action '" + a.name() +
                "' does not preserve layer-" + std::to_string(l) +
                " constraint '" + c->name + "' under the layer context");
          }
        }
      }
    }
  }
}

}  // namespace

std::vector<std::string> audit_certificate(const Design& design,
                                           const ConstraintGraph& cg,
                                           const TheoremReport& report,
                                           const StateSpace& space) {
  std::vector<std::string> problems;
  if (!report.applies) return problems;

  // 1. Every recorded obligation must claim success.
  for (const auto& ob : report.obligations) {
    if (!ob.passed) {
      problems.push_back("applies=true but obligation failed: " +
                         ob.description);
    }
  }

  // 2. Ranks: rank(j) = 1 + max{rank(k) | edge k->j, k != j} (empty -> 0).
  if (!report.ranks.empty()) {
    if (static_cast<int>(report.ranks.size()) != cg.graph.num_nodes()) {
      problems.push_back("rank vector size mismatch");
    } else {
      for (int j = 0; j < cg.graph.num_nodes(); ++j) {
        int best = 0;
        for (int e : cg.graph.in_edges(j)) {
          const int k = cg.graph.edge(e).from;
          if (k == j) continue;
          best = std::max(best, report.ranks[static_cast<std::size_t>(k)]);
        }
        if (report.ranks[static_cast<std::size_t>(j)] != 1 + best) {
          problems.push_back("rank recurrence violated at node " +
                             std::to_string(j));
        }
      }
    }
  }

  // 3. Layered (Theorem 3) certificates: re-check the layer structure.
  // The per-node orders of a layered report live inside layer-local
  // constraint graphs, not `cg`, so the node-order audit below does not
  // apply to them.
  if (!report.layers.empty()) {
    audit_layers(design, report, space, problems);
    return problems;
  }

  // 4. Per-node orders: permutations of the node's in-edge actions whose
  // pairwise preserves-obligations re-verify.
  if (!report.node_orders.empty() &&
      static_cast<int>(report.node_orders.size()) == cg.graph.num_nodes()) {
    for (int j = 0; j < cg.graph.num_nodes(); ++j) {
      std::vector<std::size_t> expected;
      for (int e : cg.graph.in_edges(j)) {
        expected.push_back(
            static_cast<std::size_t>(cg.graph.edge(e).payload));
      }
      std::vector<std::size_t> got =
          report.node_orders[static_cast<std::size_t>(j)];
      auto sorted_expected = expected;
      auto sorted_got = got;
      std::sort(sorted_expected.begin(), sorted_expected.end());
      std::sort(sorted_got.begin(), sorted_got.end());
      if (sorted_expected != sorted_got) {
        problems.push_back("order at node " + std::to_string(j) +
                           " is not a permutation of its in-edge actions");
        continue;
      }
      for (std::size_t b = 1; b < got.size(); ++b) {
        for (std::size_t a = 0; a < b; ++a) {
          const int cid = design.program.action(got[a]).constraint_id();
          if (cid < 0 ||
              static_cast<std::size_t>(cid) >= design.invariant.size()) {
            problems.push_back("order references unbound action");
            continue;
          }
          const auto& c = design.invariant.at(static_cast<std::size_t>(cid));
          if (!check_preserves(space, design.program.action(got[b]), c.fn,
                               design.fault_span)
                   .preserves) {
            problems.push_back(
                "order at node " + std::to_string(j) + ": action '" +
                design.program.action(got[b]).name() +
                "' does not preserve preceding constraint '" + c.name + "'");
          }
        }
      }
    }
  }
  return problems;
}

}  // namespace nonmask
