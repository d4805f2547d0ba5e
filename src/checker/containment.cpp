#include "checker/containment.hpp"

#include <algorithm>
#include <utility>

#include "checker/fault_span.hpp"
#include "parallel/thread_pool.hpp"
#include "util/json.hpp"

namespace nonmask {

namespace {

/// Deterministic fault-free fixpoint: repeatedly fire the lowest-index
/// enabled closure/convergence action. The radius is a worst case over
/// *adversary* choices; the daemon tie-break merely pins one reproducible
/// fixpoint to measure deviation against.
State run_to_fixpoint(const Program& program, const State& legitimate,
                      std::size_t max_steps, std::size_t& steps_out,
                      bool& reached_out) {
  State s = legitimate;
  reached_out = false;
  std::size_t steps = 0;
  for (; steps < max_steps; ++steps) {
    std::size_t chosen = program.num_actions();
    for (std::size_t i = 0; i < program.num_actions(); ++i) {
      const Action& a = program.action(i);
      if (a.kind() != ActionKind::kClosure &&
          a.kind() != ActionKind::kConvergence) {
        continue;
      }
      if (a.enabled(s)) {
        chosen = i;
        break;
      }
    }
    if (chosen == program.num_actions()) {
      reached_out = true;
      break;
    }
    program.action(chosen).execute(s);
  }
  steps_out = steps;
  return s;
}

}  // namespace

ContainmentReport measure_containment(const Program& program,
                                      const std::vector<int>& byzantine,
                                      const State& legitimate,
                                      const ContainmentOptions& opts) {
  ContainmentReport rep;
  rep.byzantine = byzantine;
  std::sort(rep.byzantine.begin(), rep.byzantine.end());

  const State fix =
      run_to_fixpoint(program, legitimate, opts.fixpoint_max_steps,
                      rep.fixpoint_steps, rep.fixpoint_reached);

  const Program composed = compose_byzantine(program, byzantine);
  StateSpace space(composed, opts.state_budget);
  const std::vector<std::size_t> actions = non_fault_actions(composed);

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

  // Level-synchronous BFS from the fixpoint over the composed system.
  // Expansion fans out per frontier item over the pool; visited marking
  // happens serially in item order and the dirty union is monotone, so the
  // report is identical at any thread count.
  ThreadPool pool(opts.config.threads);
  const unsigned workers = pool.size();
  std::vector<State> scratch(workers, space.decode(0));
  std::vector<State> next_scratch(workers, space.decode(0));
  std::vector<std::uint8_t> visited(space.size(), 0);
  const FaultSpanOptions fs_opts;

  std::vector<std::uint64_t> frontier{space.encode(fix)};
  visited[frontier[0]] = 1;
  rep.reachable_states = 1;

  std::vector<std::vector<std::uint64_t>> succ;
  while (!frontier.empty()) {
    succ.assign(frontier.size(), {});
    parallel_for_each(pool, frontier.size(),
                      [&](std::size_t i, unsigned worker) {
                        detail::expand_reachable(
                            space, actions, fs_opts, frontier[i],
                            scratch[worker], next_scratch[worker], succ[i]);
                      });
    std::vector<std::uint64_t> next;
    for (const auto& batch : succ) {
      for (std::uint64_t code : batch) {
        if (visited[code] != 0) continue;
        visited[code] = 1;
        next.push_back(code);
      }
    }
    if (next.empty()) break;
    ++rep.levels;
    rep.reachable_states += next.size();

    std::vector<std::vector<std::uint8_t>> worker_dirty(
        workers, std::vector<std::uint8_t>(static_cast<std::size_t>(num_procs),
                                           0));
    parallel_for_each(pool, next.size(), [&](std::size_t i, unsigned worker) {
      State& s = scratch[worker];
      space.decode_into(next[i], s);
      for (std::uint32_t v = 0; v < program.num_variables(); ++v) {
        if (excluded[v] != 0) continue;
        if (s.get(VarId(v)) == fix.get(VarId(v))) continue;
        const int p = program.variable(VarId(v)).process;
        worker_dirty[worker][static_cast<std::size_t>(p)] = 1;
      }
    });
    bool grew = false;
    for (int p = 0; p < num_procs; ++p) {
      const auto idx = static_cast<std::size_t>(p);
      for (unsigned w = 0; w < workers; ++w) {
        if (worker_dirty[w][idx] != 0 && rep.process_dirty[idx] == 0) {
          rep.process_dirty[idx] = 1;
          grew = true;
        }
      }
    }
    if (grew) rep.time_to_containment = rep.levels;
    frontier = std::move(next);
  }

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
