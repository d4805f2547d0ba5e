#include "spec/compile.hpp"

#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/builder.hpp"
#include "core/successor_table.hpp"
#include "faults/byzantine.hpp"
#include "faults/fault.hpp"
#include "graphlib/topology.hpp"
#include "util/rng.hpp"

namespace nonmask::spec {

namespace {

/// Run `body`, rewrapping ExprError as a line/field-precise SpecError.
template <typename Fn>
auto at(const std::string& path, int line, Fn&& body)
    -> decltype(body()) {
  try {
    return body();
  } catch (const ExprError& e) {
    throw SpecError(path, e.what(), line);
  }
}

std::string expand_name(const std::string& name, long long j) {
  const std::string placeholder = "{j}";
  std::string out;
  std::size_t pos = 0;
  bool substituted = false;
  while (true) {
    const std::size_t hit = name.find(placeholder, pos);
    if (hit == std::string::npos) {
      out.append(name, pos, name.size() - pos);
      break;
    }
    out.append(name, pos, hit - pos);
    out += std::to_string(j);
    pos = hit + placeholder.size();
    substituted = true;
  }
  if (!substituted) {
    out += "." + std::to_string(j);
  }
  return out;
}

/// Full variable names, indexed as the compiler declares them: a lookup
/// per identifier, not a scan over every variable.
using NameIndex = std::unordered_map<std::string, VarId>;

VarId resolve_variable(const NameIndex& names, const std::string& name,
                       const std::string& path, int line) {
  const auto id = names.find(name);
  if (id == names.end()) {
    throw SpecError(path, "unknown variable '" + name + "'", line);
  }
  return id->second;
}

/// The shape of one declaration as the expander sees it.
struct ExpandItem {
  bool per_process = false;
  std::string where;  // index expression; empty = all processes
  std::string group;  // interleave run key; empty = none
  int line = 0;
};

/// Expansion instances: (declaration index, process or -1) in final order.
std::vector<std::pair<std::size_t, long long>> expansion_order(
    const std::vector<ExpandItem>& decls, const CompileEnv& base_env, int n,
    const std::string& array_path, bool interleave_all) {
  std::vector<std::pair<std::size_t, long long>> order;
  std::size_t i = 0;
  while (i < decls.size()) {
    const ExpandItem& d = decls[i];
    if (!d.per_process) {
      order.emplace_back(i, -1);
      ++i;
      continue;
    }
    if (n <= 0) {
      throw SpecError(array_path + "[" + std::to_string(i) + "]",
                      "per-process declaration requires a topology", d.line);
    }
    // Collect the run to interleave: an explicit `group` run, or — when
    // interleave_all — every consecutive per-process declaration.
    std::size_t end = i + 1;
    if (interleave_all || !d.group.empty()) {
      while (end < decls.size() && decls[end].per_process &&
             (interleave_all || (!decls[end].group.empty() &&
                                 decls[end].group == d.group))) {
        ++end;
      }
    }
    auto admits = [&](std::size_t k, long long j) {
      if (decls[k].where.empty()) return true;
      CompileEnv env = base_env;
      env.binders["j"] = j;
      return at(array_path + "[" + std::to_string(k) + "].where",
                decls[k].line, [&] {
                  return eval_index_expr(decls[k].where, env) != 0;
                });
    };
    if (end == i + 1) {
      // Declaration-major: all processes of this declaration.
      for (long long j = 0; j < n; ++j) {
        if (admits(i, j)) order.emplace_back(i, j);
      }
    } else {
      // Process-major interleave across the run.
      for (long long j = 0; j < n; ++j) {
        for (std::size_t k = i; k < end; ++k) {
          if (admits(k, j)) order.emplace_back(k, j);
        }
      }
    }
    i = end;
  }
  return order;
}

PredicateFn to_predicate(CompiledExpr e) {
  if (e.is_const) {
    return e.value != 0 ? true_predicate() : false_predicate();
  }
  return [e = std::move(e)](const State& s) { return e.eval(s) != 0; };
}

FaultModelPtr build_fault_model(const FaultDecl& d, const Program& program,
                                const NameIndex& names,
                                const std::string& path) {
  if (d.model == "corrupt-k-variables") {
    return std::make_shared<CorruptKVariables>(d.k, program);
  }
  if (d.model == "corrupt-k-processes") {
    return std::make_shared<CorruptKProcesses>(d.k, program);
  }
  if (d.model == "corrupt-fraction") {
    return std::make_shared<CorruptFraction>(d.fraction);
  }
  if (d.model == "targeted") {
    std::vector<VarId> targets;
    for (std::size_t i = 0; i < d.targets.size(); ++i) {
      targets.push_back(resolve_variable(
          names, d.targets[i],
          path + ".targets[" + std::to_string(i) + "]", d.line));
    }
    return std::make_shared<TargetedCorruption>(std::move(targets),
                                                d.values);
  }
  // byzantine
  const ByzantineModel::Policy policy = d.policy == "extremes"
                                            ? ByzantineModel::Policy::kExtremes
                                            : ByzantineModel::Policy::kRandom;
  try {
    return std::make_shared<ByzantineModel>(program, d.processes, policy);
  } catch (const std::invalid_argument& e) {
    throw SpecError(path + ".processes", e.what(), d.line);
  }
}

}  // namespace

Topology build_topology(const TopologyDecl& decl) {
  Topology topo;
  auto from_tree = [&](const RootedTree& tree) {
    topo.kind = Topology::Kind::kTree;
    topo.n = tree.size();
    topo.root = tree.root();
    topo.parent = tree.parents();
    topo.children.resize(static_cast<std::size_t>(tree.size()));
    topo.nbrs.resize(static_cast<std::size_t>(tree.size()));
    for (int j = 0; j < tree.size(); ++j) {
      topo.children[static_cast<std::size_t>(j)] = tree.children(j);
      if (!tree.is_root(j)) {
        topo.nbrs[static_cast<std::size_t>(j)].push_back(tree.parent(j));
      }
      for (int c : tree.children(j)) {
        topo.nbrs[static_cast<std::size_t>(j)].push_back(c);
      }
    }
  };
  auto from_graph = [&](const UndirectedGraph& g) {
    topo.kind = Topology::Kind::kGraph;
    topo.n = g.size();
    topo.nbrs.resize(static_cast<std::size_t>(g.size()));
    for (int v = 0; v < g.size(); ++v) {
      topo.nbrs[static_cast<std::size_t>(v)] = g.neighbors(v);
    }
  };

  const int n = static_cast<int>(decl.n);
  if (decl.kind == "ring") {
    topo.kind = Topology::Kind::kRing;
    topo.n = n;
    topo.nbrs.resize(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      topo.nbrs[static_cast<std::size_t>(j)] = {(j - 1 + n) % n,
                                                (j + 1) % n};
    }
  } else if (decl.kind == "chain") {
    from_tree(RootedTree::chain(n));
  } else if (decl.kind == "star") {
    from_tree(RootedTree::star(n));
  } else if (decl.kind == "balanced") {
    from_tree(RootedTree::balanced(n, static_cast<int>(decl.arity)));
  } else if (decl.kind == "random-tree") {
    Rng rng(decl.seed);
    from_tree(RootedTree::random(n, rng));
  } else if (decl.kind == "path") {
    from_graph(UndirectedGraph::path(n));
  } else if (decl.kind == "cycle") {
    from_graph(UndirectedGraph::cycle(n));
  } else if (decl.kind == "complete") {
    from_graph(UndirectedGraph::complete(n));
  } else if (decl.kind == "grid") {
    from_graph(UndirectedGraph::grid(static_cast<int>(decl.rows),
                                     static_cast<int>(decl.cols)));
  } else {  // random-connected
    Rng rng(decl.seed);
    from_graph(UndirectedGraph::random_connected(
        n, static_cast<int>(decl.extra), rng));
  }
  return topo;
}

CompiledSpec compile_spec(const SpecDoc& doc) {
  CompiledSpec out;
  out.spec_name = doc.name;
  out.schema = doc.schema;
  out.content_hash = fnv1a64_hex(doc.text);
  out.fault_seed = doc.fault_seed;
  out.has_job = doc.has_job;
  out.job = doc.job;

  if (doc.has_topology) out.topology = build_topology(doc.topology);
  const int n = out.topology.n;

  std::unordered_map<std::string, long long> params;
  for (const auto& [key, value] : doc.params) params[key] = value;
  if (doc.has_topology) params["n"] = n;

  ProgramBuilder builder(doc.name);
  NameIndex names;
  std::unordered_map<std::string, std::vector<VarId>> families;

  CompileEnv env;
  env.params = &params;
  env.topo = &out.topology;
  env.names = &names;
  env.families = &families;

  // --- variables -----------------------------------------------------------
  std::vector<ExpandItem> var_items;
  for (const VariableDecl& d : doc.variables) {
    var_items.push_back({d.per_process, "", "", d.line});
  }
  const auto var_order = expansion_order(var_items, env, n, "$.variables",
                                         doc.interleave_processes);
  for (const auto& [i, j] : var_order) {
    const VariableDecl& d = doc.variables[i];
    const std::string path = "$.variables[" + std::to_string(i) + "]";
    CompileEnv venv = env;
    if (j >= 0) venv.binders["j"] = j;
    const long long lo =
        at(path + ".min", d.line, [&] { return eval_index_expr(d.min, venv); });
    const long long hi =
        at(path + ".max", d.line, [&] { return eval_index_expr(d.max, venv); });
    if (hi < lo) {
      throw SpecError(path, "empty domain [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "]",
                      d.line);
    }
    const std::string name =
        d.per_process ? d.name + "." + std::to_string(j) : d.name;
    if (names.count(name) > 0) {
      throw SpecError(path + ".name", "duplicate variable '" + name + "'",
                      d.line);
    }
    const int process =
        d.per_process ? static_cast<int>(j) : static_cast<int>(d.process);
    const VarId id = builder.var(name, static_cast<Value>(lo),
                                 static_cast<Value>(hi), process);
    names.emplace(name, id);
    // Expansion visits each family's processes in increasing j, so the
    // family vector is indexed by process.
    if (d.per_process) families[d.name].push_back(id);
  }

  // Every expression from here on compiles over the declared domains. The
  // tables fill on their first lookup, not here: a compile that only
  // validates a spec pays for none.
  const auto tables = std::make_shared<FootprintTables>(builder.peek());
  env.tables = tables.get();

  // --- constraints ---------------------------------------------------------
  Invariant invariant;
  std::vector<ExpandItem> con_items;
  for (const ConstraintDecl& d : doc.constraints) {
    con_items.push_back({d.per_process, d.where, d.group, d.line});
  }
  const auto con_order =
      expansion_order(con_items, env, n, "$.constraints", false);
  for (const auto& [i, j] : con_order) {
    const ConstraintDecl& d = doc.constraints[i];
    const std::string path = "$.constraints[" + std::to_string(i) + "]";
    CompileEnv cenv = env;
    if (j >= 0) cenv.binders["j"] = j;
    CompiledExpr expr = at(path + ".expr", d.line,
                           [&] { return compile_expr(parse_expr(d.expr), cenv); });
    tables->tabulate(expr);
    Constraint c;
    c.name = j >= 0 ? expand_name(d.name, j) : d.name;
    if (d.support.empty()) {
      c.support = expr.reads;
    } else {
      for (std::size_t k = 0; k < d.support.size(); ++k) {
        std::string ref = d.support[k];
        if (j >= 0 && ref.find("{j}") != std::string::npos) {
          ref = expand_name(ref, j);
        }
        c.support.push_back(resolve_variable(
            names, ref, path + ".support[" + std::to_string(k) + "]",
            d.line));
      }
    }
    c.fn = to_predicate(std::move(expr));
    invariant.add(std::move(c));
  }

  // --- actions -------------------------------------------------------------
  // Closure, convergence and environment actions get successor tables
  // (core/successor_table.hpp) over their derived footprints, within a
  // budget of the state count of their own, apart from the value tables'.
  // They fill on their first lookup too. Past 2^62 states an offset might
  // not fit its int64 entry, so such a design gets none.
  const std::optional<std::uint64_t> states = builder.peek().state_count();
  const std::uint64_t successor_budget =
      states && *states < (std::uint64_t{1} << 62) ? *states : 0;
  std::uint64_t successor_entries = 0;
  std::vector<ExpandItem> act_items;
  for (const ActionDecl& d : doc.actions) {
    act_items.push_back({d.per_process, d.where, d.group, d.line});
  }
  const auto act_order =
      expansion_order(act_items, env, n, "$.actions", false);
  for (const auto& [i, j] : act_order) {
    const ActionDecl& d = doc.actions[i];
    const std::string path = "$.actions[" + std::to_string(i) + "]";
    CompileEnv aenv = env;
    if (j >= 0) aenv.binders["j"] = j;

    CompiledExpr guard_expr;
    if (!d.guard.empty()) {
      guard_expr = at(path + ".guard", d.line, [&] {
        return compile_expr(parse_expr(d.guard), aenv);
      });
    } else {
      guard_expr.is_const = true;
      guard_expr.value = 1;
    }
    tables->tabulate(guard_expr);

    std::vector<VarId> writes;
    std::vector<CompiledExpr> rhs;
    for (std::size_t k = 0; k < d.assigns.size(); ++k) {
      const auto& [lhs_text, rhs_text] = d.assigns[k];
      const std::string assign_path = path + ".assign." + lhs_text;
      // The left-hand side is a variable reference: a full name, or a
      // family subscript `x[expr]` with a constant index.
      const ExprPtr lhs = at(assign_path, d.line,
                             [&] { return parse_expr(lhs_text); });
      VarId target;
      if (lhs->kind == ExprNode::Kind::kIdent) {
        target = resolve_variable(names, lhs->name, assign_path, d.line);
      } else if (lhs->kind == ExprNode::Kind::kSubscript) {
        const CompiledExpr compiled = at(
            assign_path, d.line, [&] { return compile_expr(lhs, aenv); });
        if (compiled.reads.size() != 1) {
          throw SpecError(assign_path, "assignment target must name one "
                                       "variable",
                          d.line);
        }
        target = compiled.reads[0];
      } else {
        throw SpecError(assign_path,
                        "assignment target must be a variable name or "
                        "family subscript",
                        d.line);
      }
      for (VarId w : writes) {
        if (w == target) {
          throw SpecError(assign_path, "duplicate assignment target", d.line);
        }
      }
      writes.push_back(target);
      rhs.push_back(at(assign_path, d.line, [&] {
        return compile_expr(parse_expr(rhs_text), aenv);
      }));
      tables->tabulate(rhs.back());
    }

    // The derived reads, plus the writes, are the footprint of the
    // action's successor table; declared reads never enter it.
    ReadUnion derived;
    derived.add(guard_expr.reads);
    for (const CompiledExpr& e : rhs) derived.add(e.reads);
    std::vector<VarId> reads = derived.take();
    std::shared_ptr<const SuccessorTable> table;
    if (d.kind != "fault") {
      derived.clear();
      derived.add(reads);
      derived.add(writes);
      const std::vector<VarId> footprint = derived.take();
      const std::uint64_t entries = tables->entries_over(footprint);
      if (entries != 0 && entries <= successor_budget - successor_entries) {
        successor_entries += entries;
        table = std::make_shared<const SuccessorTable>(builder.peek(),
                                                       footprint);
      }
    }
    if (!d.reads.empty()) {
      reads.clear();
      for (std::size_t k = 0; k < d.reads.size(); ++k) {
        std::string ref = d.reads[k];
        if (j >= 0 && ref.find("{j}") != std::string::npos) {
          ref = expand_name(ref, j);
        }
        reads.push_back(resolve_variable(
            names, ref, path + ".reads[" + std::to_string(k) + "]",
            d.line));
      }
    }

    GuardFn guard = to_predicate(std::move(guard_expr));
    // Simultaneous assignment: all right-hand sides read the pre-state.
    StatementFn statement = [writes, rhs = std::move(rhs)](State& s) {
      Value values[8];
      std::vector<Value> spill;
      Value* slot = values;
      if (writes.size() > 8) {
        spill.resize(writes.size());
        slot = spill.data();
      }
      for (std::size_t k = 0; k < writes.size(); ++k) {
        slot[k] = rhs[k].eval(s);
      }
      for (std::size_t k = 0; k < writes.size(); ++k) {
        s.set(writes[k], slot[k]);
      }
    };

    int process = -1;
    if (!d.process.empty()) {
      process = static_cast<int>(at(path + ".process", d.line, [&] {
        return eval_index_expr(d.process, aenv);
      }));
    } else if (j >= 0) {
      process = static_cast<int>(j);
    }
    const std::string name = j >= 0 ? expand_name(d.name, j) : d.name;

    const ActionKind kind = d.kind == "closure"       ? ActionKind::kClosure
                            : d.kind == "convergence" ? ActionKind::kConvergence
                            : d.kind == "environment" ? ActionKind::kEnvironment
                                                      : ActionKind::kFault;
    Action action(name, kind, std::move(guard), std::move(statement),
                  std::move(reads), std::move(writes), process);
    if (kind == ActionKind::kConvergence && !d.constraint.empty()) {
      const int constraint_id =
          static_cast<int>(at(path + ".constraint", d.line, [&] {
            return eval_index_expr(d.constraint, aenv);
          }));
      if (constraint_id < 0 ||
          static_cast<std::size_t>(constraint_id) >= invariant.size()) {
        throw SpecError(path + ".constraint",
                        "constraint id " + std::to_string(constraint_id) +
                            " out of range [0, " +
                            std::to_string(invariant.size()) + ")",
                        d.line);
      }
      action.set_constraint_id(constraint_id);
    }
    action.set_successor_table(std::move(table));
    builder.action(std::move(action));
  }

  // --- predicates ----------------------------------------------------------
  out.design.name = doc.name;
  out.design.invariant = std::move(invariant);
  out.design.stabilizing = doc.stabilizing;
  if (!doc.fault_span.empty()) {
    CompiledExpr fault_span = at("$.fault_span", 0, [&] {
      return compile_expr(parse_expr(doc.fault_span), env);
    });
    tables->tabulate(fault_span);
    out.design.fault_span = to_predicate(std::move(fault_span));
  }
  if (!doc.s_override.empty()) {
    CompiledExpr s_override = at("$.s_override", 0, [&] {
      return compile_expr(parse_expr(doc.s_override), env);
    });
    tables->tabulate(s_override);
    out.design.S_override = to_predicate(std::move(s_override));
  }
  out.design.program = builder.build();
  out.tables = tables;

  // --- fault schedule ------------------------------------------------------
  std::vector<FaultSchedule> parts;
  for (std::size_t i = 0; i < doc.faults.size(); ++i) {
    const FaultDecl& d = doc.faults[i];
    const std::string path = "$.faults[" + std::to_string(i) + "]";
    FaultModelPtr model =
        build_fault_model(d, out.design.program, names, path);
    if (d.schedule == "at") {
      parts.push_back(FaultSchedule::at(std::move(model), d.step));
    } else if (d.schedule == "burst") {
      parts.push_back(
          FaultSchedule::burst(std::move(model), d.start, d.count));
    } else if (d.schedule == "sustained") {
      parts.push_back(FaultSchedule::sustained(std::move(model), d.start,
                                               d.period, d.count));
    } else {  // persistent
      parts.push_back(FaultSchedule::persistent(std::move(model)));
    }
  }
  if (!parts.empty()) {
    out.schedule = FaultSchedule::compose(std::move(parts));
  }
  return out;
}

CompiledSpec compile_spec_text(const std::string& text) {
  return compile_spec(parse_spec(text));
}

}  // namespace nonmask::spec
