#include "spec/emit.hpp"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graphlib/topology.hpp"
#include "spec/spec.hpp"

// Each emitter mirrors one hand-coded factory in src/protocols/
// declaration-for-declaration; the fixed instance parameters here must
// match the registry's make() calls (src/spec/registry.cpp). The
// round-trip tests enforce both.

namespace nonmask::spec {

namespace {

using util::jarr;
using util::jbool;
using util::jint;
using util::jobj;
using util::jstr;
using util::JsonValue;

std::string nm(const char* base, int j) {
  return std::string(base) + "." + std::to_string(j);
}

std::string num(long long v) { return std::to_string(v); }

JsonValue make_var(const std::string& name, long long lo, long long hi,
                   int process = -1) {
  JsonValue v = jobj();
  v.add("name", jstr(name)).add("min", jint(lo)).add("max", jint(hi));
  if (process >= 0) v.add("process", jint(process));
  return v;
}

JsonValue make_con(const std::string& name, const std::string& expr,
                   const std::vector<std::string>& support) {
  JsonValue c = jobj();
  c.add("name", jstr(name)).add("expr", jstr(expr));
  JsonValue s = jarr();
  for (const auto& ref : support) s.push(jstr(ref));
  c.add("support", std::move(s));
  return c;
}

JsonValue make_act(
    const std::string& name, const char* kind, const std::string& guard,
    const std::vector<std::pair<std::string, std::string>>& assigns,
    const std::vector<std::string>& reads, int constraint = -1,
    int process = -1) {
  JsonValue a = jobj();
  a.add("name", jstr(name)).add("kind", jstr(kind));
  if (!guard.empty()) a.add("guard", jstr(guard));
  JsonValue assign = jobj();
  for (const auto& [lhs, rhs] : assigns) assign.add(lhs, jstr(rhs));
  a.add("assign", std::move(assign));
  if (constraint >= 0) a.add("constraint", jint(constraint));
  if (process >= 0) a.add("process", jint(process));
  JsonValue r = jarr();
  for (const auto& ref : reads) r.push(jstr(ref));
  a.add("reads", std::move(r));
  return a;
}

JsonValue make_doc(const std::string& name) {
  JsonValue d = jobj();
  d.add("schema", jstr(kSchemaVersion)).add("name", jstr(name));
  return d;
}

std::string conjoin(const std::vector<std::string>& terms,
                    const char* glue = " && ") {
  std::string out;
  for (const auto& t : terms) {
    if (!out.empty()) out += glue;
    out += t;
  }
  return out;
}

// --- running example (Section 3's x/y/z system) ---------------------------

JsonValue emit_running_example(const std::string& variant) {
  const long long lo = 0, hi = 7;
  JsonValue d = make_doc("running-example-" + variant);
  JsonValue vars = jarr();
  vars.push(make_var("x", lo - 1, hi));
  vars.push(make_var("y", lo, hi));
  vars.push(make_var("z", lo, hi));
  d.add("variables", std::move(vars));

  JsonValue cons = jarr();
  cons.push(make_con("x != y", "x != y", {"x", "y"}));
  cons.push(make_con("x <= z", "x <= z", {"x", "z"}));
  d.add("constraints", std::move(cons));

  JsonValue acts = jarr();
  if (variant == "write-y-z") {
    acts.push(make_act("fix-neq: y := (x == lo ? hi : lo)", "convergence",
                       "x == y",
                       {{"y", "x == " + num(lo) + " ? " + num(hi) + " : " +
                                  num(lo)}},
                       {"x", "y"}, 0));
    acts.push(make_act("fix-leq: z := x", "convergence", "x > z",
                       {{"z", "x"}}, {"x", "z"}, 1));
  } else if (variant == "write-x-both") {
    acts.push(make_act("fix-neq: x := x + 1 (wrap)", "convergence", "x == y",
                       {{"x", "x < " + num(hi) + " ? x + 1 : " + num(lo - 1)}},
                       {"x", "y"}, 0));
    acts.push(make_act("fix-leq: x := z", "convergence", "x > z",
                       {{"x", "z"}}, {"x", "z"}, 1));
  } else {  // decrease-x
    acts.push(make_act("fix-neq: x := x - 1", "convergence", "x == y",
                       {{"x", "x - 1"}}, {"x", "y"}, 0));
    acts.push(make_act("fix-leq: x := z", "convergence", "x > z",
                       {{"x", "z"}}, {"x", "z"}, 1));
  }
  d.add("actions", std::move(acts));
  return d;
}

// --- bounded token ring (Section 7.1) --------------------------------------

JsonValue emit_token_ring(bool combined) {
  const int n = 4;       // nodes 0..N, N = 3
  const long long x_max = 3;
  const int N = n - 1;
  JsonValue d = make_doc(combined ? "token-ring" : "token-ring-layered");

  JsonValue vars = jarr();
  for (int j = 0; j <= N; ++j) {
    vars.push(make_var(nm("x", j), 0, x_max, j));
  }
  d.add("variables", std::move(vars));

  JsonValue cons = jarr();
  for (int j = 0; j < N; ++j) {
    cons.push(make_con(nm("x", j) + " >= " + nm("x", j + 1),
                       nm("x", j) + " >= " + nm("x", j + 1),
                       {nm("x", j), nm("x", j + 1)}));
    cons.push(make_con(nm("x", j) + " = " + nm("x", j + 1),
                       nm("x", j) + " == " + nm("x", j + 1),
                       {nm("x", j), nm("x", j + 1)}));
  }
  d.add("constraints", std::move(cons));

  JsonValue acts = jarr();
  acts.push(make_act(
      "increment@0", "closure",
      "x.0 == " + nm("x", N) + " && x.0 < " + num(x_max),
      {{"x.0", "x.0 + 1"}}, {"x.0", nm("x", N)}, -1, 0));
  for (int j = 0; j < N; ++j) {
    const std::string xj = nm("x", j), xj1 = nm("x", j + 1);
    const std::string at = "@" + std::to_string(j + 1);
    if (combined) {
      acts.push(make_act("copy" + at, "convergence", xj + " != " + xj1,
                         {{xj1, xj}}, {xj, xj1}, 2 * j + 1, j + 1));
    } else {
      acts.push(make_act("raise" + at, "convergence", xj + " < " + xj1,
                         {{xj1, xj}}, {xj, xj1}, 2 * j, j + 1));
      acts.push(make_act("level" + at, "convergence", xj + " > " + xj1,
                         {{xj1, xj}}, {xj, xj1}, 2 * j + 1, j + 1));
    }
  }
  d.add("actions", std::move(acts));

  std::vector<std::string> terms;
  for (int j = 0; j + 1 <= N; ++j) {
    terms.push_back(nm("x", j) + " >= " + nm("x", j + 1));
  }
  terms.push_back("(x.0 == " + nm("x", N) + " || x.0 == " + nm("x", N) +
                  " + 1)");
  d.add("s_override", jstr(conjoin(terms)));
  return d;
}

// --- Dijkstra K-state ring -------------------------------------------------

JsonValue emit_dijkstra_ring() {
  const int n = 5;
  const long long K = 5;
  JsonValue d = make_doc("dijkstra-k-state-ring");

  JsonValue vars = jarr();
  for (int j = 0; j < n; ++j) vars.push(make_var(nm("x", j), 0, K - 1, j));
  d.add("variables", std::move(vars));

  JsonValue cons = jarr();
  for (int j = 1; j < n; ++j) {
    cons.push(make_con(nm("x", j) + " = " + nm("x", j - 1),
                       nm("x", j) + " == " + nm("x", j - 1),
                       {nm("x", j), nm("x", j - 1)}));
  }
  d.add("constraints", std::move(cons));

  JsonValue acts = jarr();
  acts.push(make_act("advance@0", "closure", "x.0 == " + nm("x", n - 1),
                     {{"x.0", "(x.0 + 1) % " + num(K)}},
                     {"x.0", nm("x", n - 1)}, -1, 0));
  for (int j = 1; j < n; ++j) {
    acts.push(make_act("adopt@" + std::to_string(j), "closure",
                       nm("x", j) + " != " + nm("x", j - 1),
                       {{nm("x", j), nm("x", j - 1)}},
                       {nm("x", j), nm("x", j - 1)}, -1, j));
  }
  d.add("actions", std::move(acts));

  std::vector<std::string> terms;
  terms.push_back("(x.0 == " + nm("x", n - 1) + " ? 1 : 0)");
  for (int j = 1; j < n; ++j) {
    terms.push_back("(" + nm("x", j) + " != " + nm("x", j - 1) + " ? 1 : 0)");
  }
  d.add("s_override", jstr(conjoin(terms, " + ") + " == 1"));
  return d;
}

// --- Dijkstra three-state ring ---------------------------------------------

JsonValue emit_dijkstra_three_state() {
  const int n = 4;
  JsonValue d = make_doc("dijkstra-three-state");

  JsonValue vars = jarr();
  for (int j = 0; j < n; ++j) vars.push(make_var(nm("s", j), 0, 2, j));
  d.add("variables", std::move(vars));

  auto inc3 = [](const std::string& v) { return "(" + v + " + 1) % 3"; };
  std::vector<std::string> priv;  // per-machine privilege indicators
  priv.push_back(inc3("s.0") + " == s.1");

  JsonValue acts = jarr();
  acts.push(make_act("bottom", "closure", priv[0],
                     {{"s.0", "(s.0 + 2) % 3"}}, {"s.0", "s.1"}, -1, 0));
  for (int i = 1; i + 1 < n; ++i) {
    const std::string si = nm("s", i), sl = nm("s", i - 1),
                      sr = nm("s", i + 1);
    const std::string g =
        inc3(si) + " == " + sl + " || " + inc3(si) + " == " + sr;
    priv.push_back(g);
    acts.push(make_act("normal@" + std::to_string(i), "closure", g,
                       {{si, inc3(si)}}, {si, sl, sr}, -1, i));
  }
  {
    const std::string st = nm("s", n - 1), sl = nm("s", n - 2);
    const std::string g =
        sl + " == s.0 && " + inc3(sl) + " != " + st;
    priv.push_back(g);
    acts.push(make_act("top", "closure", g, {{st, inc3(sl)}},
                       {st, sl, "s.0"}, -1, n - 1));
  }
  d.add("actions", std::move(acts));

  std::vector<std::string> terms;
  for (const auto& p : priv) terms.push_back("(" + p + " ? 1 : 0)");
  d.add("s_override", jstr(conjoin(terms, " + ") + " == 1"));
  return d;
}

// --- Dijkstra four-state array ---------------------------------------------

JsonValue emit_dijkstra_four_state() {
  const int n = 4;
  JsonValue d = make_doc("dijkstra-four-state");

  JsonValue vars = jarr();
  for (int j = 0; j < n; ++j) vars.push(make_var(nm("x", j), 0, 1, j));
  for (int j = 0; j < n; ++j) {
    const long long lo = j == 0 ? 1 : 0;
    const long long hi = j == n - 1 ? 0 : 1;
    vars.push(make_var(nm("up", j), lo, hi, j));
  }
  d.add("variables", std::move(vars));

  std::vector<std::string> priv;
  priv.push_back("x.0 == x.1 && up.1 == 0");

  JsonValue acts = jarr();
  acts.push(make_act("bottom", "closure", priv[0], {{"x.0", "1 - x.0"}},
                     {"x.0", "x.1", "up.1"}, -1, 0));
  for (int i = 1; i + 1 < n; ++i) {
    const std::string xi = nm("x", i), xl = nm("x", i - 1),
                      xr = nm("x", i + 1), ui = nm("up", i),
                      ur = nm("up", i + 1);
    const std::string recv = xi + " != " + xl;
    const std::string pass =
        xi + " == " + xr + " && " + ui + " == 1 && " + ur + " == 0";
    priv.push_back(recv + " || (" + pass + ")");
    acts.push(make_act("recv@" + std::to_string(i), "closure", recv,
                       {{xi, xl}, {ui, "1"}}, {xi, xl}, -1, i));
    acts.push(make_act("pass-down@" + std::to_string(i), "closure", pass,
                       {{ui, "0"}}, {xi, xr, ui, ur}, -1, i));
  }
  {
    const std::string xt = nm("x", n - 1), xl = nm("x", n - 2);
    priv.push_back(xt + " != " + xl);
    acts.push(make_act("top", "closure", xt + " != " + xl, {{xt, xl}},
                       {xt, xl}, -1, n - 1));
  }
  d.add("actions", std::move(acts));

  std::vector<std::string> terms;
  for (const auto& p : priv) terms.push_back("(" + p + " ? 1 : 0)");
  d.add("s_override", jstr(conjoin(terms, " + ") + " == 1"));
  return d;
}

// --- BFS spanning tree (2x3 grid, root 0) ----------------------------------

JsonValue emit_spanning_tree(bool with_environment) {
  const UndirectedGraph g = UndirectedGraph::grid(2, 3);
  const int n = g.size();
  const int root = 0;
  const long long cap = n - 1;
  JsonValue d = make_doc(with_environment ? "bfs-spanning-tree+env"
                                          : "bfs-spanning-tree");

  JsonValue vars = jarr();
  for (int j = 0; j < n; ++j) vars.push(make_var(nm("dist", j), 0, cap, j));
  if (with_environment) vars.push(make_var("env.noise", 0, 1));
  d.add("variables", std::move(vars));

  JsonValue cons = jarr();
  JsonValue acts = jarr();
  int cid = 0;
  for (int j = 0; j < n; ++j) {
    if (j == root) {
      cons.push(make_con(nm("dist", j) + " = 0", nm("dist", j) + " == 0",
                         {nm("dist", j)}));
      acts.push(make_act("pin-root@" + std::to_string(j), "convergence",
                         nm("dist", j) + " != 0", {{nm("dist", j), "0"}},
                         {nm("dist", j)}, cid++, j));
      continue;
    }
    // capped_min_plus_one: min(min(nbr dists, cap) + 1, cap).
    std::string inner = "min(";
    std::vector<std::string> support, reads;
    for (int k : g.neighbors(j)) {
      inner += nm("dist", k) + ", ";
      support.push_back(nm("dist", k));
      reads.push_back(nm("dist", k));
    }
    inner += num(cap) + ")";
    const std::string rhs = "min(" + inner + " + 1, " + num(cap) + ")";
    support.push_back(nm("dist", j));
    reads.push_back(nm("dist", j));
    cons.push(make_con(nm("dist", j) + " = min(nbr)+1",
                       nm("dist", j) + " == " + rhs, support));
    acts.push(make_act("recompute@" + std::to_string(j), "convergence",
                       nm("dist", j) + " != " + rhs, {{nm("dist", j), rhs}},
                       reads, cid++, j));
  }
  if (with_environment) {
    acts.push(make_act("env.toggle-noise", "environment", "",
                       {{"env.noise", "env.noise == 0 ? 1 : 0"}},
                       {"env.noise"}));
  }
  d.add("constraints", std::move(cons));
  d.add("actions", std::move(acts));
  return d;
}

// --- diffusing computation (balanced binary tree, 7 nodes) -----------------

JsonValue emit_diffusing(bool combined) {
  const RootedTree tree = RootedTree::balanced(7, 2);
  const int n = tree.size();
  JsonValue d = make_doc(combined ? "diffusing-computation"
                                  : "diffusing-computation-separated");

  JsonValue vars = jarr();
  for (int j = 0; j < n; ++j) {
    vars.push(make_var(nm("c", j), 0, 1, j));   // kGreen..kRed
    vars.push(make_var(nm("sn", j), 0, 1, j));
  }
  d.add("variables", std::move(vars));

  JsonValue cons = jarr();
  std::vector<int> constraint_of(static_cast<std::size_t>(n), -1);
  int cid = 0;
  for (int j = 0; j < n; ++j) {
    if (tree.is_root(j)) continue;
    const int p = tree.parent(j);
    constraint_of[static_cast<std::size_t>(j)] = cid++;
    cons.push(make_con(
        nm("R", j),
        "(" + nm("c", j) + " == " + nm("c", p) + " && " + nm("sn", j) +
            " == " + nm("sn", p) + ") || (" + nm("c", j) + " == 0 && " +
            nm("c", p) + " == 1)",
        {nm("c", j), nm("c", p), nm("sn", j), nm("sn", p)}));
  }
  d.add("constraints", std::move(cons));

  JsonValue acts = jarr();
  {
    const int r = tree.root();
    acts.push(make_act(
        "initiate@" + std::to_string(r), "closure", nm("c", r) + " == 0",
        {{nm("c", r), "1"}, {nm("sn", r), "1 - " + nm("sn", r)}},
        {nm("c", r), nm("sn", r)}, -1, r));
  }
  for (int j = 0; j < n; ++j) {
    if (tree.is_root(j)) continue;
    const int p = tree.parent(j);
    const std::string cj = nm("c", j), cp = nm("c", p), snj = nm("sn", j),
                      snp = nm("sn", p);
    const std::vector<std::pair<std::string, std::string>> copy_parent = {
        {cj, cp}, {snj, snp}};
    const std::vector<std::string> reads = {cj, cp, snj, snp};
    const std::string R = "(" + cj + " == " + cp + " && " + snj + " == " +
                          snp + ") || (" + cj + " == 0 && " + cp + " == 1)";
    if (combined) {
      acts.push(make_act("propagate-or-correct@" + std::to_string(j),
                         "convergence",
                         snj + " != " + snp + " || (" + cj + " == 1 && " +
                             cp + " == 0)",
                         copy_parent, reads,
                         constraint_of[static_cast<std::size_t>(j)], j));
    } else {
      acts.push(make_act("propagate@" + std::to_string(j), "closure",
                         cj + " == 0 && " + cp + " == 1 && " + snj + " != " +
                             snp,
                         copy_parent, reads, -1, j));
      acts.push(make_act("correct@" + std::to_string(j), "convergence",
                         "!(" + R + ")", copy_parent, reads,
                         constraint_of[static_cast<std::size_t>(j)], j));
    }
  }
  for (int j = 0; j < n; ++j) {
    std::vector<std::string> terms = {nm("c", j) + " == 1"};
    std::vector<std::string> reads = {nm("c", j), nm("sn", j)};
    for (int k : tree.children(j)) {
      terms.push_back(nm("c", k) + " == 0");
      terms.push_back(nm("sn", k) + " == " + nm("sn", j));
      reads.push_back(nm("c", k));
      reads.push_back(nm("sn", k));
    }
    acts.push(make_act("reflect@" + std::to_string(j), "closure",
                       conjoin(terms), {{nm("c", j), "0"}}, reads, -1, j));
  }
  d.add("actions", std::move(acts));
  return d;
}

// --- stabilizing coloring (5-cycle) ----------------------------------------

JsonValue emit_coloring() {
  const UndirectedGraph g = UndirectedGraph::cycle(5);
  const int n = g.size();
  const long long palette_max = g.max_degree();
  JsonValue d = make_doc("stabilizing-coloring");

  JsonValue vars = jarr();
  for (int j = 0; j < n; ++j) {
    vars.push(make_var(nm("color", j), 0, palette_max, j));
  }
  d.add("variables", std::move(vars));

  JsonValue cons = jarr();
  JsonValue acts = jarr();
  int cid = 0;
  for (int j = 0; j < n; ++j) {
    std::vector<int> lower, all_nbrs;
    for (int k : g.neighbors(j)) {
      all_nbrs.push_back(k);
      if (k < j) lower.push_back(k);
    }
    if (lower.empty()) continue;

    std::vector<std::string> ok_terms, bad_terms, support;
    for (int k : lower) {
      ok_terms.push_back(nm("color", k) + " != " + nm("color", j));
      bad_terms.push_back(nm("color", k) + " == " + nm("color", j));
      support.push_back(nm("color", k));
    }
    support.push_back(nm("color", j));
    cons.push(make_con("no-conflict-below@" + std::to_string(j),
                       conjoin(ok_terms), support));

    std::string mex = "mex(";
    std::vector<std::string> reads;
    for (std::size_t i = 0; i < all_nbrs.size(); ++i) {
      if (i > 0) mex += ", ";
      mex += nm("color", all_nbrs[i]);
      reads.push_back(nm("color", all_nbrs[i]));
    }
    mex += ")";
    reads.push_back(nm("color", j));
    acts.push(make_act("recolor@" + std::to_string(j), "convergence",
                       conjoin(bad_terms, " || "), {{nm("color", j), mex}},
                       reads, cid++, j));
  }
  d.add("constraints", std::move(cons));
  d.add("actions", std::move(acts));
  return d;
}

// --- Hsu-Huang maximal matching (4-path) -----------------------------------

JsonValue emit_matching() {
  const UndirectedGraph g = UndirectedGraph::path(4);
  const int n = g.size();
  JsonValue d = make_doc("hsu-huang-matching");

  JsonValue vars = jarr();
  for (int j = 0; j < n; ++j) {
    vars.push(make_var(nm("p", j), -1, g.degree(j) - 1, j));
  }
  d.add("variables", std::move(vars));

  // back_index[j][i]: position of j in the adjacency list of nbr i of j.
  auto back_index = [&](int j, std::size_t i) {
    const int k = g.neighbors(j)[i];
    const auto& kn = g.neighbors(k);
    for (std::size_t t = 0; t < kn.size(); ++t) {
      if (kn[t] == j) return static_cast<int>(t);
    }
    return -1;
  };

  JsonValue acts = jarr();
  for (int j = 0; j < n; ++j) {
    const auto& nbrs = g.neighbors(j);
    const std::string pj = nm("p", j);
    std::vector<std::string> reads = {pj};
    for (int k : nbrs) reads.push_back(nm("p", k));

    // "some neighbor points at me" and its first adjacency index.
    std::vector<std::string> suitor_terms;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      suitor_terms.push_back(nm("p", nbrs[i]) + " == " +
                             num(back_index(j, i)));
    }
    const std::string has_suitor = conjoin(suitor_terms, " || ");
    std::string first_suitor = "-1";
    for (std::size_t i = nbrs.size(); i-- > 0;) {
      first_suitor = "(" + suitor_terms[i] + " ? " + num(i) + " : " +
                     first_suitor + ")";
    }
    // "some neighbor is null" and its first adjacency index.
    std::vector<std::string> null_terms;
    for (int k : nbrs) null_terms.push_back(nm("p", k) + " < 0");
    const std::string has_null = conjoin(null_terms, " || ");
    std::string first_null = "-1";
    for (std::size_t i = nbrs.size(); i-- > 0;) {
      first_null = "(" + null_terms[i] + " ? " + num(i) + " : " + first_null +
                   ")";
    }
    acts.push(make_act("accept@" + std::to_string(j), "closure",
                       pj + " < 0 && (" + has_suitor + ")",
                       {{pj, first_suitor}}, reads, -1, j));
    acts.push(make_act("propose@" + std::to_string(j), "closure",
                       pj + " < 0 && !(" + has_suitor + ") && (" + has_null +
                           ")",
                       {{pj, first_null}}, reads, -1, j));
    // retract: I point at k but k points at a third node.
    std::string stale = "0";
    for (std::size_t i = nbrs.size(); i-- > 0;) {
      const std::string pk = nm("p", nbrs[i]);
      stale = "(" + pj + " == " + num(i) + " ? (" + pk + " >= 0 && " + pk +
              " != " + num(back_index(j, i)) + ") : " + stale + ")";
    }
    acts.push(make_act("retract@" + std::to_string(j), "closure", stale,
                       {{pj, "-1"}}, reads, -1, j));
  }
  d.add("actions", std::move(acts));

  // S: the pointers form a maximal matching.
  std::vector<std::string> terms;
  for (int j = 0; j < n; ++j) {
    const auto& nbrs = g.neighbors(j);
    std::string pointed_back = "0";
    for (std::size_t i = nbrs.size(); i-- > 0;) {
      pointed_back = "(" + nm("p", j) + " == " + num(i) + " ? " +
                     nm("p", nbrs[i]) + " == " + num(back_index(j, i)) +
                     " : " + pointed_back + ")";
    }
    terms.push_back("(" + nm("p", j) + " < 0 || " + pointed_back + ")");
  }
  for (const auto& [u, v] : g.edges()) {
    terms.push_back("!(" + nm("p", u) + " < 0 && " + nm("p", v) + " < 0)");
  }
  d.add("s_override", jstr(conjoin(terms)));
  return d;
}

// --- ring leader election (5 nodes) ----------------------------------------

JsonValue emit_leader_election() {
  const int n = 5;
  JsonValue d = make_doc("ring-leader-election");

  JsonValue vars = jarr();
  for (int j = 0; j < n; ++j) vars.push(make_var(nm("ldr", j), 0, n - 1, j));
  d.add("variables", std::move(vars));

  JsonValue cons = jarr();
  JsonValue acts = jarr();
  cons.push(make_con("ldr.0 = 0", "ldr.0 == 0", {"ldr.0"}));
  acts.push(make_act("claim@0", "convergence", "ldr.0 != 0",
                     {{"ldr.0", "0"}}, {"ldr.0"}, 0, 0));
  for (int j = 1; j < n; ++j) {
    const std::string lj = nm("ldr", j), lp = nm("ldr", j - 1);
    const std::string rhs = "min(" + num(j) + ", " + lp + ")";
    cons.push(make_con(lj + " = min(id, " + lp + ")", lj + " == " + rhs,
                       {lj, lp}));
    acts.push(make_act("adopt@" + std::to_string(j), "convergence",
                       lj + " != " + rhs, {{lj, rhs}}, {lj, lp}, j, j));
  }
  d.add("constraints", std::move(cons));
  d.add("actions", std::move(acts));
  return d;
}

// --- atomic action (Section 6) ---------------------------------------------

JsonValue emit_atomic_action() {
  const int n = 3;
  const long long work_modulus = 4;
  JsonValue d = make_doc("atomic-action");

  JsonValue vars = jarr();
  vars.push(make_var("d", 0, 1));
  vars.push(make_var("work", 0, work_modulus - 1));
  for (int j = 0; j < n; ++j) vars.push(make_var(nm("f", j), 0, 2, j));
  d.add("variables", std::move(vars));

  JsonValue cons = jarr();
  JsonValue acts = jarr();
  for (int j = 0; j < n; ++j) {
    const std::string fj = nm("f", j);
    cons.push(make_con(fj + " = d", fj + " == d", {fj, "d"}));
    acts.push(make_act("apply@" + std::to_string(j), "convergence",
                       fj + " != d && " + fj + " != 2", {{fj, "d"}},
                       {fj, "d"}, j, j));
    acts.push(make_act("flip@" + std::to_string(j), "fault", "",
                       {{fj, fj + " != 2 ? 1 - " + fj + " : " + fj}}, {fj},
                       -1, j));
  }
  {
    std::vector<std::string> terms, reads;
    for (int j = 0; j < n; ++j) {
      terms.push_back(nm("f", j) + " == d");
      reads.push_back(nm("f", j));
    }
    reads.push_back("d");
    reads.push_back("work");
    acts.push(make_act("work", "closure", conjoin(terms),
                       {{"work", "(work + 1) % " + num(work_modulus)}},
                       reads));
  }
  d.add("constraints", std::move(cons));
  d.add("actions", std::move(acts));

  std::vector<std::string> span;
  for (int j = 0; j < n; ++j) span.push_back(nm("f", j) + " != 2");
  d.add("fault_span", jstr(conjoin(span)));
  d.add("stabilizing", jbool(false));
  return d;
}

// --- distributed reset (3-chain) -------------------------------------------

JsonValue emit_distributed_reset() {
  const RootedTree tree = RootedTree::chain(3);
  const int n = tree.size();
  const long long app_values = 3;
  JsonValue d = make_doc("distributed-reset");

  JsonValue vars = jarr();
  for (int j = 0; j < n; ++j) {
    vars.push(make_var(nm("c", j), 0, 1, j));
    vars.push(make_var(nm("sn", j), 0, 1, j));
    vars.push(make_var(nm("app", j), 0, app_values - 1, j));
  }
  d.add("variables", std::move(vars));

  JsonValue cons = jarr();
  std::vector<int> constraint_of(static_cast<std::size_t>(n), -1);
  int cid = 0;
  for (int j = 0; j < n; ++j) {
    if (tree.is_root(j)) continue;
    const int p = tree.parent(j);
    constraint_of[static_cast<std::size_t>(j)] = cid++;
    cons.push(make_con(
        nm("R", j),
        "(" + nm("c", j) + " == " + nm("c", p) + " && " + nm("sn", j) +
            " == " + nm("sn", p) + ") || (" + nm("c", j) + " == 0 && " +
            nm("c", p) + " == 1)",
        {nm("c", j), nm("c", p), nm("sn", j), nm("sn", p)}));
  }
  d.add("constraints", std::move(cons));

  JsonValue acts = jarr();
  for (int j = 0; j < n; ++j) {
    acts.push(make_act(
        "work@" + std::to_string(j), "closure", nm("c", j) + " == 0",
        {{nm("app", j), "(" + nm("app", j) + " + 1) % " + num(app_values)}},
        {nm("c", j), nm("app", j)}, -1, j));
  }
  {
    const int r = tree.root();
    acts.push(make_act("initiate-reset@" + std::to_string(r), "closure",
                       nm("c", r) + " == 0",
                       {{nm("c", r), "1"},
                        {nm("sn", r), "1 - " + nm("sn", r)},
                        {nm("app", r), "0"}},
                       {nm("c", r), nm("sn", r), nm("app", r)}, -1, r));
  }
  for (int j = 0; j < n; ++j) {
    if (tree.is_root(j)) continue;
    const int p = tree.parent(j);
    const std::string cj = nm("c", j), cp = nm("c", p), snj = nm("sn", j),
                      snp = nm("sn", p), aj = nm("app", j);
    const std::vector<std::pair<std::string, std::string>> copy_and_reset = {
        {cj, cp}, {snj, snp}, {aj, cp + " == 1 ? 0 : " + aj}};
    const std::vector<std::string> reads = {cj, cp, snj, snp};
    acts.push(make_act("propagate-or-correct@" + std::to_string(j),
                       "convergence",
                       snj + " != " + snp + " || (" + cj + " == 1 && " + cp +
                           " == 0)",
                       copy_and_reset, reads,
                       constraint_of[static_cast<std::size_t>(j)], j));
  }
  for (int j = 0; j < n; ++j) {
    std::vector<std::string> terms = {nm("c", j) + " == 1"};
    std::vector<std::string> reads = {nm("c", j), nm("sn", j)};
    for (int k : tree.children(j)) {
      terms.push_back(nm("c", k) + " == 0");
      terms.push_back(nm("sn", k) + " == " + nm("sn", j));
      reads.push_back(nm("c", k));
      reads.push_back(nm("sn", k));
    }
    acts.push(make_act("complete@" + std::to_string(j), "closure",
                       conjoin(terms), {{nm("c", j), "0"}}, reads, -1, j));
  }
  d.add("actions", std::move(acts));
  return d;
}

// --- tree aggregation (4-chain) --------------------------------------------

JsonValue emit_aggregation() {
  const RootedTree tree = RootedTree::chain(4);
  const int n = tree.size();
  const long long max_value = 2;
  JsonValue d = make_doc("tree-aggregation");

  JsonValue vars = jarr();
  for (int j = 0; j < n; ++j) {
    vars.push(make_var(nm("in", j), 0, max_value, j));
    vars.push(make_var(nm("agg", j), 0, max_value, j));
  }
  d.add("variables", std::move(vars));

  JsonValue cons = jarr();
  JsonValue acts = jarr();
  for (int j = 0; j < n; ++j) {
    std::string rhs = nm("in", j);
    // The C++ factory declares read sets sorted by VarId: in.j (2j) before
    // agg.j (2j+1) before the children's agg.k (k > j).
    std::vector<std::string> support = {nm("in", j), nm("agg", j)};
    for (int k : tree.children(j)) {
      rhs = "max(" + rhs + ", " + nm("agg", k) + ")";
      support.push_back(nm("agg", k));
    }
    cons.push(make_con(nm("agg", j) + " = max(subtree)",
                       nm("agg", j) + " == " + rhs, support));
    acts.push(make_act("recompute@" + std::to_string(j), "convergence",
                       nm("agg", j) + " != " + rhs, {{nm("agg", j), rhs}},
                       support, j, j));
  }
  d.add("constraints", std::move(cons));
  d.add("actions", std::move(acts));
  return d;
}

// --- maximal independent set (5-cycle) -------------------------------------

JsonValue emit_independent_set() {
  const UndirectedGraph g = UndirectedGraph::cycle(5);
  const int n = g.size();
  JsonValue d = make_doc("maximal-independent-set");

  JsonValue vars = jarr();
  for (int j = 0; j < n; ++j) vars.push(make_var(nm("in", j), 0, 1, j));
  d.add("variables", std::move(vars));

  JsonValue acts = jarr();
  for (int j = 0; j < n; ++j) {
    std::vector<int> lower;
    std::vector<std::string> join_terms = {nm("in", j) + " == 0"};
    std::vector<std::string> reads;
    for (int k : g.neighbors(j)) {
      join_terms.push_back(nm("in", k) + " == 0");
      reads.push_back(nm("in", k));
      if (k < j) lower.push_back(k);
    }
    reads.push_back(nm("in", j));
    acts.push(make_act("join@" + std::to_string(j), "closure",
                       conjoin(join_terms), {{nm("in", j), "1"}}, reads, -1,
                       j));
    if (!lower.empty()) {
      std::vector<std::string> leave_terms;
      for (int k : lower) leave_terms.push_back(nm("in", k) + " == 1");
      acts.push(make_act("leave@" + std::to_string(j), "closure",
                         nm("in", j) + " == 1 && (" +
                             conjoin(leave_terms, " || ") + ")",
                         {{nm("in", j), "0"}}, reads, -1, j));
    }
  }
  d.add("actions", std::move(acts));

  std::vector<std::string> terms;
  for (const auto& [u, v] : g.edges()) {
    terms.push_back("!(" + nm("in", u) + " == 1 && " + nm("in", v) +
                    " == 1)");
  }
  for (int j = 0; j < n; ++j) {
    std::vector<std::string> cover = {nm("in", j) + " == 1"};
    for (int k : g.neighbors(j)) cover.push_back(nm("in", k) + " == 1");
    terms.push_back("(" + conjoin(cover, " || ") + ")");
  }
  d.add("s_override", jstr(conjoin(terms)));
  return d;
}

// --- triple modular redundancy ---------------------------------------------

JsonValue emit_tmr(bool masking) {
  const long long value_max = 2, reference = 1;
  JsonValue d = make_doc(masking ? "tmr-masking" : "tmr-nonmasking");

  JsonValue vars = jarr();
  for (int k = 0; k < 3; ++k) vars.push(make_var(nm("r", k), 0, value_max, k));
  vars.push(make_var("out", 0, value_max));
  d.add("variables", std::move(vars));

  const std::string maj =
      "(r.0 == r.1 || r.0 == r.2 ? r.0 : (r.1 == r.2 ? r.1 : -1))";
  const std::string healthy = "(r.0 == " + num(reference) +
                              " ? 1 : 0) + (r.1 == " + num(reference) +
                              " ? 1 : 0) + (r.2 == " + num(reference) +
                              " ? 1 : 0) >= 2";
  const std::string repaired = "r.0 == " + num(reference) + " && r.1 == " +
                               num(reference) + " && r.2 == " +
                               num(reference);

  JsonValue cons = jarr();
  JsonValue acts = jarr();
  for (int k = 0; k < 3; ++k) {
    const std::string rk = nm("r", k);
    cons.push(make_con(rk + " = majority",
                       maj + " < 0 || " + rk + " == " + maj,
                       {"r.0", "r.1", "r.2"}));
    acts.push(make_act("repair@" + std::to_string(k), "convergence",
                       maj + " >= 0 && " + rk + " != " + maj, {{rk, maj}},
                       {"r.0", "r.1", "r.2"}, k, k));
  }
  cons.push(make_con("out = majority", maj + " < 0 || out == " + maj,
                     {"r.0", "r.1", "r.2", "out"}));
  acts.push(make_act("vote", "convergence",
                     maj + " >= 0 && out != " + maj, {{"out", maj}},
                     {"r.0", "r.1", "r.2", "out"}, 3));
  for (int k = 0; k < 3; ++k) {
    const std::string rk = nm("r", k);
    const std::string guard =
        masking ? "(" + repaired + ") && out == " + num(reference)
                : "(" + repaired + ")";
    acts.push(make_act("corrupt-r" + std::to_string(k), "fault", guard,
                       {{rk, num((reference + 1) % (value_max + 1))}},
                       {"r.0", "r.1", "r.2", "out", rk}, -1, k));
  }
  if (!masking) {
    acts.push(make_act("corrupt-out", "fault", healthy,
                       {{"out", "out == " + num(reference) + " ? " +
                                    num((reference + 1) % (value_max + 1)) +
                                    " : " + num(reference)}},
                       {"r.0", "r.1", "r.2", "out"}));
  }
  d.add("constraints", std::move(cons));
  d.add("actions", std::move(acts));

  const std::string s_pred =
      "(" + healthy + ") && out == " + num(reference);
  d.add("s_override", jstr(s_pred));
  d.add("fault_span", jstr(masking ? s_pred : "(" + healthy + ")"));
  d.add("stabilizing", jbool(false));
  return d;
}

}  // namespace

std::string emit_builtin_spec(const std::string& name) {
  JsonValue d;
  if (name == "running-example-decrease-x") {
    d = emit_running_example("decrease-x");
  } else if (name == "running-example-write-y-z") {
    d = emit_running_example("write-y-z");
  } else if (name == "running-example-write-x-both") {
    d = emit_running_example("write-x-both");
  } else if (name == "token-ring") {
    d = emit_token_ring(true);
  } else if (name == "token-ring-layered") {
    d = emit_token_ring(false);
  } else if (name == "dijkstra-k-state-ring") {
    d = emit_dijkstra_ring();
  } else if (name == "dijkstra-three-state") {
    d = emit_dijkstra_three_state();
  } else if (name == "dijkstra-four-state") {
    d = emit_dijkstra_four_state();
  } else if (name == "bfs-spanning-tree") {
    d = emit_spanning_tree(false);
  } else if (name == "bfs-spanning-tree+env") {
    d = emit_spanning_tree(true);
  } else if (name == "diffusing-computation") {
    d = emit_diffusing(true);
  } else if (name == "diffusing-computation-separated") {
    d = emit_diffusing(false);
  } else if (name == "stabilizing-coloring") {
    d = emit_coloring();
  } else if (name == "hsu-huang-matching") {
    d = emit_matching();
  } else if (name == "ring-leader-election") {
    d = emit_leader_election();
  } else if (name == "atomic-action") {
    d = emit_atomic_action();
  } else if (name == "distributed-reset") {
    d = emit_distributed_reset();
  } else if (name == "tree-aggregation") {
    d = emit_aggregation();
  } else if (name == "maximal-independent-set") {
    d = emit_independent_set();
  } else if (name == "tmr-masking") {
    d = emit_tmr(true);
  } else if (name == "tmr-nonmasking") {
    d = emit_tmr(false);
  } else {
    throw std::invalid_argument("emit_builtin_spec: unknown protocol '" +
                                name + "'");
  }
  return util::dump_json(d);
}

}  // namespace nonmask::spec
