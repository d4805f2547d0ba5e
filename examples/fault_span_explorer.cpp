// Fault-span exploration: the Section 3 design flow made visible.
//
//   1. Take the atomic-action design (S ⊊ T ⊊ true) and *compute* the
//      fault-span its tolerated fault class induces; compare with the
//      hand-declared T; check convergence from it.
//   2. Show that an un-tolerated fault (writing the poison value) blows
//      the span up to states the program cannot repair.
//   3. Demonstrate the Section 7 refinements on the token ring: the
//      convergence stair T -> (non-increasing) -> S, and the restriction
//      of the diffusing constraint graph to satisfied regions.
//
// Run:  ./build/examples/fault_span_explorer
#include <iostream>

#include "cgraph/refine.hpp"
#include "checker/convergence_check.hpp"
#include "checker/fault_span.hpp"
#include "checker/stair.hpp"
#include "checker/state_space.hpp"
#include "protocols/atomic_action.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/token_ring.hpp"

using namespace nonmask;

int main() {
  std::cout << "== 1. induced fault-span of the atomic action ==\n";
  {
    auto aa = make_atomic_action(2);
    StateSpace space(aa.design.program);
    const auto span =
        compute_fault_span(space, aa.design.S(), aa.fault_actions);

    std::uint64_t declared_T = 0, in_S = 0;
    State s(aa.design.program.num_variables());
    const auto S = aa.design.S();
    const auto T = aa.design.T();
    for (std::uint64_t code = 0; code < space.size(); ++code) {
      space.decode_into(code, s);
      if (T(s)) ++declared_T;
      if (S(s)) ++in_S;
    }
    std::cout << "total states:            " << space.size() << "\n"
              << "states in S:             " << in_S << "\n"
              << "hand-declared T:         " << declared_T << "\n"
              << "induced span |reach(S)|: " << span.size()
              << (span.size() == declared_T ? "  (matches T exactly)" : "")
              << "\n";
    const auto conv =
        check_convergence(space, S, span.as_predicate());
    std::cout << "convergence from induced span: " << to_string(conv.verdict)
              << "\n";

    // Now add an un-tolerated fault: poison f.0 with the value 2.
    const VarId f0 = aa.flags[0];
    aa.design.program.add_action(Action(
        "poison", ActionKind::kFault, true_predicate(),
        [f0](State& st) { st.set(f0, 2); }, {f0}, {f0}, 0));
    StateSpace space2(aa.design.program);
    const auto wide = compute_fault_span(
        space2, aa.design.S(), {aa.design.program.num_actions() - 1});
    const auto conv2 =
        check_convergence(space2, aa.design.S(), wide.as_predicate());
    std::cout << "span with poison fault:  " << wide.size()
              << " states; convergence: " << to_string(conv2.verdict)
              << "  <- the fault class exceeds the design's tolerance\n\n";
  }

  std::cout << "== 2. the token ring's convergence stair (Section 7) ==\n";
  {
    const auto tr = make_token_ring_bounded(4, 3, true);
    StateSpace space(tr.design.program);
    auto non_increasing = [x = tr.x](const State& s) {
      for (std::size_t j = 0; j + 1 < x.size(); ++j) {
        if (s.get(x[j]) < s.get(x[j + 1])) return false;
      }
      return true;
    };
    const auto stair = check_stair(
        space, tr.design.T(),
        {StatePredicate{"non-increasing", non_increasing},
         StatePredicate{"S", tr.design.S()}});
    std::cout << "stair valid: " << (stair.valid ? "yes" : "no") << "\n";
    for (const auto& step : stair.steps) {
      std::cout << "  stage into '" << step.name << "': worst "
                << step.convergence.max_steps_to_S << " steps\n";
    }
    std::cout << "  summed bound: " << stair.total_worst_case << " steps\n\n";
  }

  std::cout << "== 3. restricting the diffusing constraint graph ==\n";
  {
    const auto dd = make_diffusing(RootedTree::chain(4), false);
    StateSpace space(dd.design.program);
    const auto cg = infer_constraint_graph(dd.design.program);
    std::cout << "full graph: " << cg.graph.graph.num_edges() << " edges\n";
    for (std::size_t upto = 1; upto <= dd.design.invariant.size(); ++upto) {
      std::vector<PredicateFn> held;
      for (std::size_t i = 0; i < upto; ++i) {
        held.push_back(dd.design.invariant.at(i).fn);
      }
      const auto restricted = restrict_constraint_graph(
          dd.design, cg.graph, p_all(held), space);
      std::cout << "restricted to R.1..R." << upto << " held: "
                << restricted.graph.graph.num_edges()
                << " edges remain\n";
    }
  }
  return 0;
}
