// Quickstart: the paper's Sections 4/6 running example, end to end.
//
//   1. Build the candidate triple for S = (x != y) /\ (x <= z).
//   2. Derive convergence actions (three variants from the paper).
//   3. Build the constraint graph (reproducing the paper's figure).
//   4. Validate with Theorems 1/2 and with the exact checker.
//   5. Simulate recovery from a corrupted state.
//
// Run:  ./build/examples/quickstart
#include <iostream>

#include "cgraph/theorems.hpp"
#include "checker/convergence_check.hpp"
#include "checker/state_space.hpp"
#include "core/describe.hpp"
#include "engine/simulator.hpp"
#include "protocols/running_example.hpp"
#include "sched/daemons.hpp"

using namespace nonmask;

namespace {

void examine(RunningExampleVariant variant) {
  const Design d = make_running_example(variant);
  std::cout << "==== " << d.name << " ====\n" << describe_design(d);

  // The constraint graph, inferred from the actions' read/write sets.
  const auto cg = infer_constraint_graph(d.program);
  if (!cg.ok) {
    std::cout << "constraint graph failed: " << cg.error << "\n";
    return;
  }
  std::cout << "constraint graph (" << to_string(classify(cg.graph))
            << "):\n"
            << cg.graph.graph.to_dot();

  // Mechanical theorem validation (exhaustive obligations).
  StateSpace space(d.program);
  std::cout << format_report(validate_design(d, space));

  // Ground truth: the exact checker.
  const auto exact = check_convergence(space, d.S(), d.T());
  std::cout << "exact checker: " << to_string(exact.verdict);
  if (exact.verdict == ConvergenceVerdict::kConverges) {
    std::cout << " (worst case " << exact.max_steps_to_S << " steps to S)";
  }
  std::cout << "\n";

  // Simulate recovery from one corrupted state.
  State start(d.program.num_variables());
  start.set(d.program.find_variable("x"), 5);
  start.set(d.program.find_variable("y"), 5);
  start.set(d.program.find_variable("z"), 2);
  RandomDaemon daemon(1);
  RunOptions ropts;
  ropts.max_steps = 50;
  ropts.record_trace = true;
  ropts.record_snapshots = true;
  const auto r = converge(d, start, daemon, ropts);
  std::cout << "simulation from {" << d.program.format_state(start)
            << "}: " << (r.converged ? "converged" : "did not converge")
            << " in " << r.steps << " steps\n"
            << r.trace.format(d.program, 10) << "\n";
}

}  // namespace

int main() {
  std::cout << "nonmask quickstart — the {x != y, x <= z} running example\n\n";
  examine(RunningExampleVariant::kWriteYZ);    // Section 4: out-tree
  examine(RunningExampleVariant::kWriteXBoth); // Section 6: livelocks
  examine(RunningExampleVariant::kDecreaseX);  // Section 6: Theorem 2 fix
  return 0;
}
