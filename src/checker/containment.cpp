#include "checker/containment.hpp"

#include <algorithm>

#include "store/frontier.hpp"
#include "util/json.hpp"

namespace nonmask {

namespace {

/// Cap on the fault-free fixpoint iteration's steps.
constexpr std::size_t kFixpointMaxSteps = 1u << 20;

}  // namespace

ContainmentFixpoint containment_fixpoint(const Program& program,
                                         const State& legitimate) {
  ContainmentFixpoint fix{legitimate};
  for (; fix.steps < kFixpointMaxSteps; ++fix.steps) {
    std::size_t chosen = program.num_actions();
    for (std::size_t i = 0; i < program.num_actions(); ++i) {
      const Action& a = program.action(i);
      if (a.kind() != ActionKind::kClosure &&
          a.kind() != ActionKind::kConvergence) {
        continue;
      }
      if (a.enabled(fix.state)) {
        chosen = i;
        break;
      }
    }
    if (chosen == program.num_actions()) {
      fix.reached = true;
      break;
    }
    program.action(chosen).execute(fix.state);
  }
  return fix;
}

ContainmentReport measure_containment(const Program& program,
                                      const std::vector<int>& byzantine,
                                      const ContainmentFixpoint& fixpoint,
                                      const store::StoreConfig& config) {
  ContainmentReport rep;
  rep.byzantine = byzantine;
  std::sort(rep.byzantine.begin(), rep.byzantine.end());
  rep.fixpoint_reached = fixpoint.reached;
  rep.fixpoint_steps = fixpoint.steps;
  const State& fix = fixpoint.state;

  const Program composed = compose_byzantine(program, byzantine);
  StateSpace space(composed, config.budget);

  const UndirectedGraph comm = communication_graph(program);
  rep.process_distance = distances_from(comm, rep.byzantine);
  const int num_procs = comm.size();
  rep.process_dirty.assign(static_cast<std::size_t>(num_procs), 0);

  const auto is_byz = [&rep](int p) {
    return std::binary_search(rep.byzantine.begin(), rep.byzantine.end(), p);
  };
  for (int p = 0; p < num_procs; ++p) {
    const int d = rep.process_distance[static_cast<std::size_t>(p)];
    if (!is_byz(p) && d > rep.horizon) rep.horizon = d;
  }

  // Variables excluded from dirty accounting: the adversary's own (they
  // deviate by construction) and shared variables with no owning process
  // (no topology distance to attribute the deviation to).
  std::vector<std::uint8_t> excluded(program.num_variables(), 0);
  for (VarId v : byzantine_variables(program, rep.byzantine)) {
    excluded[v.index()] = 1;
  }
  for (std::uint32_t i = 0; i < program.num_variables(); ++i) {
    if (program.variable(VarId(i)).process == VariableSpec::kNoProcess) {
      excluded[i] = 1;
    }
  }

  // BFS from the fixpoint over the composed system. Each level's new
  // states mark the processes whose variables they move off the fixpoint;
  // the level at which the dirty set last grew is the time to containment.
  store::FrontierEngine engine(space, config);
  State s = fix;
  const StateSet region = engine.reachable_from(
      {space.encode(fix)}, non_fault_actions(composed),
      [&](const std::vector<std::uint64_t>& added) {
        ++rep.levels;
        bool grew = false;
        for (std::uint64_t code : added) {
          space.decode_into(code, s);
          for (std::uint32_t v = 0; v < program.num_variables(); ++v) {
            if (excluded[v] != 0) continue;
            if (s.get(VarId(v)) == fix.get(VarId(v))) continue;
            const auto p =
                static_cast<std::size_t>(program.variable(VarId(v)).process);
            if (rep.process_dirty[p] == 0) {
              rep.process_dirty[p] = 1;
              grew = true;
            }
          }
        }
        if (grew) rep.time_to_containment = rep.levels;
      });
  rep.reachable_states = region.size();

  for (int p = 0; p < num_procs; ++p) {
    const auto idx = static_cast<std::size_t>(p);
    if (rep.process_dirty[idx] == 0) continue;
    const int d = rep.process_distance[idx];
    // A dirty process the comm graph says is unreachable means the
    // attribution model is too coarse for this program; report the
    // pessimal radius rather than understating containment.
    rep.radius = std::max(rep.radius, d < 0 ? rep.horizon : d);
  }
  rep.contained = rep.radius < rep.horizon;
  return rep;
}

std::string containment_to_json(const Program& program,
                                const ContainmentReport& report) {
  std::string out;
  util::JsonWriter w(&out);
  w.begin_object();
  w.key("protocol");
  w.value(program.name());
  w.key("byzantine");
  w.begin_array();
  for (int p : report.byzantine) w.value(p);
  w.end_array();
  w.key("radius");
  w.value(report.radius);
  w.key("horizon");
  w.value(report.horizon);
  w.key("contained");
  w.value(report.contained);
  w.key("fixpoint_reached");
  w.value(report.fixpoint_reached);
  w.key("fixpoint_steps");
  w.value(static_cast<std::uint64_t>(report.fixpoint_steps));
  w.key("reachable_states");
  w.value(report.reachable_states);
  w.key("levels");
  w.value(report.levels);
  w.key("time_to_containment");
  w.value(report.time_to_containment);
  w.key("processes");
  w.begin_array();
  for (std::size_t p = 0; p < report.process_dirty.size(); ++p) {
    w.begin_object();
    w.key("id");
    w.value(static_cast<int>(p));
    w.key("distance");
    w.value(report.process_distance[p]);
    w.key("dirty");
    w.value(report.process_dirty[p] != 0);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out;
}

}  // namespace nonmask
