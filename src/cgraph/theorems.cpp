#include "cgraph/theorems.hpp"

#include <algorithm>
#include <sstream>

#include "graphlib/analysis.hpp"

namespace nonmask {

namespace {

/// Record one obligation's outcome in the report: it passed when the scan
/// found no counterexample. Returns the outcome.
bool record(TheoremReport& report, std::string description,
            std::optional<State> counterexample) {
  Obligation ob;
  ob.description = std::move(description);
  ob.passed = !counterexample;
  ob.counterexample = std::move(counterexample);
  const bool passed = ob.passed;
  if (!passed && report.failure.empty()) report.failure = ob.description;
  report.obligations.push_back(std::move(ob));
  return passed;
}

/// Run one preserves-obligation and append it to the report. Returns the
/// obligation's outcome.
bool discharge(TheoremReport& report, const StateSpace& space,
               const Action& action, const PredicateFn& predicate,
               std::string description, const PredicateFn& context) {
  return record(report, std::move(description),
                check_preserves(space, action, predicate, context)
                    .counterexample);
}

/// The constraint a convergence action establishes, or nullptr when the
/// action has no constraint binding.
const Constraint* constraint_of(const Design& design, std::size_t action_idx) {
  const int id = design.program.action(action_idx).constraint_id();
  if (id < 0 || static_cast<std::size_t>(id) >= design.invariant.size()) {
    return nullptr;
  }
  return &design.invariant.at(static_cast<std::size_t>(id));
}

/// Section 3 form obligations for the given convergence actions: the guard
/// implies the bound constraint is violated, and execution establishes it.
/// Both are checked within the fault-span T.
bool form_obligations(TheoremReport& report, const Design& design,
                      const std::vector<std::size_t>& conv_actions,
                      const StateSpace& space) {
  const PredicateFn& T = design.fault_span;
  bool all = true;
  for (std::size_t idx : conv_actions) {
    const Action& a = design.program.action(idx);
    const Constraint* c = constraint_of(design, idx);
    if (c == nullptr) {
      Obligation ob;
      ob.description = "convergence action '" + a.name() +
                       "' has a constraint binding";
      ob.passed = false;
      if (report.failure.empty()) report.failure = ob.description;
      report.obligations.push_back(std::move(ob));
      all = false;
      continue;
    }
    const PredicateFn& cf = c->fn;
    all &= record(report,
                  "convergence action '" + a.name() +
                      "' is enabled only when constraint '" + c->name +
                      "' is violated",
                  first_failure(space, [&](const State& s, State&) {
                    return !(T(s) && a.enabled(s)) || !cf(s);
                  }));
    all &= record(report,
                  "convergence action '" + a.name() +
                      "' establishes constraint '" + c->name + "'",
                  first_failure(space, [&](const State& s, State& next) {
                    if (!T(s) || !a.enabled(s)) return true;
                    a.apply_into(s, next);
                    return cf(next);
                  }));
  }
  return all;
}

/// All convergence-action indices of a design.
std::vector<std::size_t> convergence_actions_of(const Design& design) {
  return design.program.actions_of_kind(ActionKind::kConvergence);
}

/// The method's premise (Section 3): the constraints are chosen so that
/// their conjunction together with T equals S (we check the ⇒ direction,
/// which is what the theorems' conclusions need), and every constraint has
/// a convergence action to establish it. Designs that merely *annotate*
/// constraints (or none at all) while overriding S must not vacuously pass.
bool premise_obligations(TheoremReport& report, const Design& design,
                         const StateSpace& space) {
  bool all = true;

  // (i) Every constraint is bound to at least one convergence action.
  std::vector<bool> covered(design.invariant.size(), false);
  for (std::size_t ai = 0; ai < design.program.num_actions(); ++ai) {
    const Action& a = design.program.action(ai);
    if (a.kind() != ActionKind::kConvergence) continue;
    const int id = a.constraint_id();
    if (id >= 0 && static_cast<std::size_t>(id) < covered.size()) {
      covered[static_cast<std::size_t>(id)] = true;
    }
  }
  for (std::size_t ci = 0; ci < covered.size(); ++ci) {
    Obligation ob;
    ob.description = "constraint '" + design.invariant.at(ci).name +
                     "' has a convergence action";
    ob.passed = covered[ci];
    if (!ob.passed && report.failure.empty()) report.failure = ob.description;
    all &= ob.passed;
    report.obligations.push_back(std::move(ob));
  }

  // (ii) constraints /\ T => S. Trivial when S is the default conjunction;
  // checked at every state when the design overrides S.
  if (design.S_override) {
    const PredicateFn constraints = design.invariant.as_predicate();
    const PredicateFn& T = design.fault_span;
    const PredicateFn S = design.S();
    all &= record(report,
                  "the constraints' conjunction together with T implies S",
                  first_failure(space, [&](const State& s, State&) {
                    return !(constraints(s) && T(s)) || S(s);
                  }));
  }
  return all;
}

/// Closure obligations shared by all three theorems: every closure action
/// preserves each constraint (optionally under a context hypothesis, and
/// optionally restricted to a subset of constraints).
bool closure_obligations(TheoremReport& report, const Design& design,
                         const std::vector<std::size_t>& constraint_ids,
                         const StateSpace& space, const PredicateFn& context,
                         const char* suffix) {
  bool all = true;
  // All obligations are hypotheses within the fault-span T.
  const PredicateFn ctx =
      context ? p_and(design.fault_span, context) : design.fault_span;
  for (std::size_t ai = 0; ai < design.program.num_actions(); ++ai) {
    const Action& a = design.program.action(ai);
    if (a.kind() != ActionKind::kClosure) continue;
    for (std::size_t ci : constraint_ids) {
      const Constraint& c = design.invariant.at(ci);
      all &= discharge(report, space, a, c.fn,
                       "closure action '" + a.name() +
                           "' preserves constraint '" + c.name + "'" + suffix,
                       ctx);
    }
  }
  return all;
}

/// Design obligations: every non-fault action preserves the fault-span T.
bool fault_span_obligations(TheoremReport& report, const Design& design,
                            const StateSpace& space) {
  bool all = true;
  for (std::size_t ai = 0; ai < design.program.num_actions(); ++ai) {
    const Action& a = design.program.action(ai);
    if (a.kind() == ActionKind::kFault) continue;
    all &= discharge(report, space, a, design.fault_span,
                     "action '" + a.name() + "' preserves fault-span T", {});
  }
  return all;
}

/// Solve the linear-order antecedent for the in-edge actions of one node:
/// build the must-precede relation (x before y whenever x does not preserve
/// y's constraint) and topologically sort it. Obligations for the pairwise
/// preserves checks are recorded. Returns nullopt when no order exists.
std::optional<std::vector<std::size_t>> solve_node_order(
    TheoremReport& report, const Design& design,
    const std::vector<std::size_t>& in_actions, const StateSpace& space,
    const PredicateFn& context) {
  const std::size_t k = in_actions.size();
  if (k <= 1) return std::vector<std::size_t>(in_actions);

  const PredicateFn ctx =
      context ? p_and(design.fault_span, context) : design.fault_span;
  // preserves[i][j]: does action i preserve the constraint of action j?
  std::vector<std::vector<bool>> preserves(k, std::vector<bool>(k, true));
  for (std::size_t i = 0; i < k; ++i) {
    const Action& ai = design.program.action(in_actions[i]);
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) continue;
      const Constraint* cj = constraint_of(design, in_actions[j]);
      if (cj == nullptr) {
        report.failure = "convergence action '" +
                         design.program.action(in_actions[j]).name() +
                         "' has no constraint binding";
        return std::nullopt;
      }
      preserves[i][j] = check_preserves(space, ai, cj->fn, ctx).preserves;
    }
  }

  // Kahn's algorithm on must-precede edges i -> j (i before j) whenever
  // !preserves[i][j].
  std::vector<int> indegree(k, 0);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      if (i != j && !preserves[i][j]) ++indegree[j];
    }
  }
  std::vector<std::size_t> ready;
  for (std::size_t j = 0; j < k; ++j) {
    if (indegree[j] == 0) ready.push_back(j);
  }
  std::vector<std::size_t> order;
  while (!ready.empty()) {
    // Deterministic: lowest index first.
    std::sort(ready.begin(), ready.end(), std::greater<>());
    const std::size_t i = ready.back();
    ready.pop_back();
    order.push_back(in_actions[i]);
    for (std::size_t j = 0; j < k; ++j) {
      if (j != i && !preserves[i][j]) {
        if (--indegree[j] == 0) ready.push_back(j);
      }
    }
  }
  if (order.size() != k) return std::nullopt;

  // Record the order's pairwise obligations (all pass by construction).
  for (std::size_t b = 1; b < k; ++b) {
    for (std::size_t a = 0; a < b; ++a) {
      // later action order[b] preserves constraint of earlier order[a]
      std::size_t ia = 0, ib = 0;
      for (std::size_t t = 0; t < k; ++t) {
        if (in_actions[t] == order[a]) ia = t;
        if (in_actions[t] == order[b]) ib = t;
      }
      Obligation ob;
      ob.description = "convergence action '" +
                       design.program.action(order[b]).name() +
                       "' preserves constraint of preceding '" +
                       design.program.action(order[a]).name() + "'";
      ob.passed = preserves[ib][ia];
      report.obligations.push_back(std::move(ob));
    }
  }
  return order;
}

}  // namespace

TheoremReport validate_theorem1(const Design& design,
                                const ConstraintGraph& cg,
                                const StateSpace& space) {
  TheoremReport report;
  report.theorem = "Theorem 1 (out-tree constraint graph)";
  report.shape = classify(cg);

  std::vector<std::size_t> all_constraints(design.invariant.size());
  for (std::size_t i = 0; i < all_constraints.size(); ++i) {
    all_constraints[i] = i;
  }
  bool ok =
      closure_obligations(report, design, all_constraints, space, {}, "");
  ok &= fault_span_obligations(report, design, space);
  ok &= form_obligations(report, design, convergence_actions_of(design), space);
  ok &= premise_obligations(report, design, space);

  if (report.shape != GraphShape::kOutTree) {
    report.failure = std::string("constraint graph is ") +
                     to_string(report.shape) + ", not an out-tree";
    ok = false;
  } else {
    if (auto ranks = constraint_graph_ranks(cg)) report.ranks = *ranks;
  }
  report.applies = ok;
  return report;
}

TheoremReport validate_theorem2(const Design& design,
                                const ConstraintGraph& cg,
                                const StateSpace& space) {
  TheoremReport report;
  report.theorem = "Theorem 2 (self-looping constraint graph)";
  report.shape = classify(cg);

  std::vector<std::size_t> all_constraints(design.invariant.size());
  for (std::size_t i = 0; i < all_constraints.size(); ++i) {
    all_constraints[i] = i;
  }
  bool ok =
      closure_obligations(report, design, all_constraints, space, {}, "");
  ok &= fault_span_obligations(report, design, space);
  ok &= form_obligations(report, design, convergence_actions_of(design), space);
  ok &= premise_obligations(report, design, space);

  if (report.shape == GraphShape::kCyclic) {
    report.failure = "constraint graph has a cycle of length > 1";
    report.applies = false;
    return report;
  }
  if (auto ranks = constraint_graph_ranks(cg)) report.ranks = *ranks;

  // Per-node linear order of in-edge actions.
  report.node_orders.resize(
      static_cast<std::size_t>(cg.graph.num_nodes()));
  for (int node = 0; node < cg.graph.num_nodes(); ++node) {
    std::vector<std::size_t> in_actions;
    for (int e : cg.graph.in_edges(node)) {
      in_actions.push_back(static_cast<std::size_t>(cg.graph.edge(e).payload));
    }
    auto order = solve_node_order(report, design, in_actions, space, {});
    if (!order) {
      if (report.failure.empty()) {
        report.failure = "no valid linear order of convergence actions at "
                         "constraint-graph node " +
                         std::to_string(node);
      }
      ok = false;
      continue;
    }
    report.node_orders[static_cast<std::size_t>(node)] = std::move(*order);
  }
  report.applies = ok;
  return report;
}

TheoremReport validate_theorem3(
    const Design& design, const std::vector<std::vector<std::size_t>>& layers,
    const StateSpace& space) {
  TheoremReport report;
  report.theorem = "Theorem 3 (layered constraint graphs)";
  report.layers = layers;

  bool ok = fault_span_obligations(report, design, space);
  {
    std::vector<std::size_t> all_conv;
    for (const auto& layer : layers) {
      all_conv.insert(all_conv.end(), layer.begin(), layer.end());
    }
    ok &= form_obligations(report, design, all_conv, space);
  }
  ok &= premise_obligations(report, design, space);

  // Constraints of each layer (via the actions' constraint bindings).
  std::vector<std::vector<std::size_t>> layer_constraints(layers.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    for (std::size_t ai : layers[l]) {
      const Constraint* c = constraint_of(design, ai);
      if (c == nullptr) {
        report.failure = "convergence action '" +
                         design.program.action(ai).name() +
                         "' has no constraint binding";
        report.applies = false;
        return report;
      }
      layer_constraints[l].push_back(
          static_cast<std::size_t>(design.program.action(ai).constraint_id()));
    }
    std::sort(layer_constraints[l].begin(), layer_constraints[l].end());
    layer_constraints[l].erase(
        std::unique(layer_constraints[l].begin(), layer_constraints[l].end()),
        layer_constraints[l].end());
  }

  // Context of layer l: all constraints in lower layers hold, and S does
  // not yet hold. The ¬S refinement is the paper's own Section 7.1 note —
  // "the first closure action is not enabled when the first conjunct holds
  // but the second does not": preservation of a layer's constraints by
  // closure actions is only needed *during convergence*; once S holds, the
  // candidate triple's closure of S takes over.
  const PredicateFn not_S = p_not(design.S());
  auto context_of = [&](std::size_t l) -> PredicateFn {
    std::vector<PredicateFn> lower{not_S};
    for (std::size_t k = 0; k < l; ++k) {
      for (std::size_t ci : layer_constraints[k]) {
        lower.push_back(design.invariant.at(ci).fn);
      }
    }
    return p_all(std::move(lower));
  };

  for (std::size_t l = 0; l < layers.size(); ++l) {
    const PredicateFn context = context_of(l);
    const std::string suffix =
        l == 0 ? std::string{}
               : " (given layers 0.." + std::to_string(l - 1) + ")";

    // (a) closure actions preserve this layer's constraints under context.
    ok &= closure_obligations(report, design, layer_constraints[l], space,
                              context, suffix.c_str());

    // (b) convergence actions of higher layers preserve this layer's
    // constraints under context.
    for (std::size_t h = l + 1; h < layers.size(); ++h) {
      for (std::size_t ai : layers[h]) {
        const Action& a = design.program.action(ai);
        for (std::size_t ci : layer_constraints[l]) {
          const Constraint& c = design.invariant.at(ci);
          ok &= discharge(report, space, a, c.fn,
                          "layer-" + std::to_string(h) +
                              " convergence action '" + a.name() +
                              "' preserves layer-" + std::to_string(l) +
                              " constraint '" + c.name + "'" + suffix,
                          context);
        }
      }
    }

    // (c) the layer's constraint graph is self-looping.
    const auto cg = infer_constraint_graph(design.program, layers[l]);
    if (!cg.ok) {
      report.failure = "layer " + std::to_string(l) +
                       ": constraint graph construction failed: " + cg.error;
      ok = false;
      continue;
    }
    const GraphShape shape = classify(cg.graph);
    if (shape == GraphShape::kCyclic) {
      report.failure = "layer " + std::to_string(l) +
                       ": constraint graph has a cycle of length > 1";
      ok = false;
      continue;
    }

    // (d) per-node linear orders within the layer, under context.
    for (int node = 0; node < cg.graph.graph.num_nodes(); ++node) {
      std::vector<std::size_t> in_actions;
      for (int e : cg.graph.graph.in_edges(node)) {
        in_actions.push_back(
            static_cast<std::size_t>(cg.graph.graph.edge(e).payload));
      }
      auto order =
          solve_node_order(report, design, in_actions, space, context);
      if (!order) {
        if (report.failure.empty()) {
          report.failure = "layer " + std::to_string(l) +
                           ": no valid linear order at node " +
                           std::to_string(node);
        }
        ok = false;
        continue;
      }
      report.node_orders.push_back(std::move(*order));
    }
  }

  report.applies = ok;
  return report;
}

TheoremReport validate_design(const Design& design, const StateSpace& space) {
  const auto cg = infer_constraint_graph(design.program);
  if (!cg.ok) {
    TheoremReport report;
    report.theorem = "(constraint graph construction)";
    report.failure = cg.error;
    return report;
  }
  TheoremReport t1 = validate_theorem1(design, cg.graph, space);
  if (t1.applies) return t1;
  return validate_theorem2(design, cg.graph, space);
}

std::string format_report(const TheoremReport& report) {
  std::ostringstream out;
  out << report.theorem << ": "
      << (report.applies ? "APPLIES" : "DOES NOT APPLY") << "\n";
  if (!report.failure.empty()) out << "  failure: " << report.failure << "\n";
  out << "  constraint graph shape: " << to_string(report.shape) << "\n";
  std::size_t passed = 0;
  for (const auto& ob : report.obligations) {
    if (ob.passed) ++passed;
  }
  out << "  obligations: " << passed << "/" << report.obligations.size()
      << " discharged\n";
  for (const auto& ob : report.obligations) {
    if (!ob.passed) out << "    FAILED: " << ob.description << "\n";
  }
  if (!report.ranks.empty()) {
    out << "  node ranks:";
    for (std::size_t i = 0; i < report.ranks.size(); ++i) {
      out << " n" << i << "=" << report.ranks[i];
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace nonmask
