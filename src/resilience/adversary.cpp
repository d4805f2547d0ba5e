#include "resilience/adversary.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "checker/convergence_check.hpp"
#include "checker/state_space.hpp"
#include "engine/simulator.hpp"
#include "faults/byzantine.hpp"
#include "obs/metrics.hpp"
#include "sched/daemons.hpp"
#include "store/bitset.hpp"
#include "util/json.hpp"

namespace nonmask {

namespace {

/// Lazy longest-path-to-S over the transition graph (central daemon: every
/// enabled action is a successor). dist(s) = 0 when S holds, else
/// 1 + max over successors; a ¬S deadlock or a ¬S cycle yields kDiverges
/// (some maximal computation never reaches S). Memoized per code; finite
/// memo values are safe because any cycle through a state is discovered
/// while that state is still on the DFS stack.
class WorstCaseDistance {
 public:
  static constexpr std::uint64_t kDiverges = ~std::uint64_t{0};

  WorstCaseDistance(const StateSpace& space, PredicateFn S)
      : space_(&space),
        S_(std::move(S)),
        succ_(space, non_fault_actions(space.program())),
        dist_(space.size(), kUnset),
        on_stack_(space.size()),
        scratch_(space.program().num_variables()) {}

  std::uint64_t eval(std::uint64_t root) {
    if (dist_[root] != kUnset) return dist_[root];
    struct Frame {
      std::uint64_t code;
      std::vector<std::uint64_t> succs;
      std::size_t next = 0;
      std::uint64_t best = 0;  // max resolved successor distance
    };
    std::vector<Frame> stack;
    push(stack, root);
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (dist_[f.code] != kUnset) {  // resolved as an S state on push
        stack.pop_back();
        continue;
      }
      if (f.next < f.succs.size()) {
        const std::uint64_t child = f.succs[f.next++];
        if (dist_[child] != kUnset) {
          f.best = std::max(f.best, dist_[child]);
        } else if (on_stack_[child] != 0) {
          f.best = kDiverges;  // back edge: a ¬S cycle through child
        } else {
          push(stack, child);
        }
        continue;
      }
      // All children resolved: a ¬S deadlock (no successors) diverges,
      // otherwise 1 + the worst child (saturating at kDiverges).
      dist_[f.code] = f.succs.empty() || f.best == kDiverges
                          ? kDiverges
                          : f.best + 1;
      on_stack_.set(f.code, 0);
      stack.pop_back();
      if (!stack.empty()) {
        Frame& parent = stack.back();
        parent.best = std::max(parent.best, dist_[f.code]);
      }
    }
    return dist_[root];
  }

  /// First successor (in the checker's sorted order) attaining the max
  /// distance; returns false at S states and dead ends.
  bool worst_successor(std::uint64_t code, std::uint64_t* out) {
    std::vector<std::uint64_t> succs;
    succ_.successors(code, succs);
    bool found = false;
    std::uint64_t best = 0;
    for (std::uint64_t child : succs) {
      const std::uint64_t d = eval(child);
      if (!found || d > best) {
        found = true;
        best = d;
        *out = child;
      }
    }
    return found;
  }

 private:
  static constexpr std::uint64_t kUnset = ~std::uint64_t{0} - 1;

  template <typename Stack>
  void push(Stack& stack, std::uint64_t code) {
    space_->decode_into(code, scratch_);
    if (S_(scratch_)) {
      dist_[code] = 0;
      return;
    }
    stack.push_back({code, {}, 0, 0});
    succ_.successors(code, stack.back().succs);
    on_stack_.set(code, 1);
  }

  const StateSpace* space_;
  PredicateFn S_;
  // Successor enumeration goes through the store facade's source (same
  // sorted-distinct contract as ProgramSuccessors) and the on-stack marks
  // live at 2 bits/state, so the memo's footprint is dominated by dist_
  // alone even at large exhaustive budgets.
  ProgramSuccessors succ_;
  std::vector<std::uint64_t> dist_;
  store::TwoBitArray on_stack_;
  State scratch_;
};

std::uint64_t derived_seed(std::uint64_t seed, std::uint64_t salt) {
  SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (salt + 1)));
  return sm.next();
}

TrialOutcome replay_placement(const Design& design, const State& base,
                              const FaultPlacement& placement,
                              const AdversaryOptions& opts) {
  State start = base;
  for (std::size_t i = 0; i < placement.targets.size(); ++i) {
    start.set(placement.targets[i],
              design.program.variable(placement.targets[i])
                  .clamp(placement.values[i]));
  }
  RandomDaemon daemon(derived_seed(opts.seed, 1));
  RunOptions run_opts;
  run_opts.max_steps = opts.max_steps;
  const RunResult r = converge(design, std::move(start), daemon, run_opts);
  TrialOutcome outcome;
  outcome.converged = r.converged;
  outcome.deadlocked = r.deadlocked;
  outcome.exhausted = r.exhausted;
  outcome.steps = r.steps;
  outcome.rounds = r.rounds;
  outcome.moves = r.moves;
  return outcome;
}

/// Hill-climb objective: convergence steps, with non-convergence scoring
/// above every converging run.
std::uint64_t objective(const TrialOutcome& o, std::size_t max_steps) {
  return o.converged ? o.steps : static_cast<std::uint64_t>(max_steps) + 1;
}

std::size_t resolve_budget(const Design& design, const AdversaryOptions& opts) {
  const std::size_t n = design.program.num_variables();
  if (opts.budget_k == 0) return n;
  return std::min(opts.budget_k, n);
}

FaultPlacement random_placement(const Design& design, std::size_t k,
                                Rng& rng) {
  const std::size_t n = design.program.num_variables();
  std::vector<std::uint32_t> vars(n);
  for (std::uint32_t i = 0; i < n; ++i) vars[i] = i;
  // Partial Fisher-Yates: the first k entries are the victims.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + rng.below(n - i);
    std::swap(vars[i], vars[j]);
  }
  FaultPlacement placement;
  for (std::size_t i = 0; i < k; ++i) {
    const VarId id(vars[i]);
    const auto& spec = design.program.variable(id);
    placement.targets.push_back(id);
    placement.values.push_back(
        static_cast<Value>(rng.range(spec.lo, spec.hi)));
  }
  return placement;
}

AdversaryResult greedy_adversary(const Design& design,
                                 const AdversaryOptions& opts,
                                 std::size_t k) {
  StateSpace space(design.program, opts.exhaustive_budget);
  WorstCaseDistance wc(space, design.S());
  AdversaryResult result;
  result.exhaustive = true;
  result.placement.at_step = 0;

  State cur = legitimate_state(design, opts);
  std::uint64_t cur_dist = wc.eval(space.encode(cur));
  for (std::size_t round = 0; round < k; ++round) {
    bool improved = false;
    VarId best_var;
    Value best_val = 0;
    std::uint64_t best_dist = cur_dist;
    for (std::uint32_t v = 0; v < design.program.num_variables(); ++v) {
      const VarId id(v);
      const auto& spec = design.program.variable(id);
      const Value old = cur.get(id);
      for (Value val = spec.lo; val <= spec.hi; ++val) {
        if (val == old) continue;
        cur.set(id, val);
        const std::uint64_t d = wc.eval(space.encode(cur));
        ++result.evaluations;
        // Strict improvement with first-wins ties keeps the search
        // deterministic and stops it from burning budget on no-ops.
        if (d > best_dist && best_dist != WorstCaseDistance::kDiverges) {
          improved = true;
          best_var = id;
          best_val = val;
          best_dist = d;
        }
      }
      cur.set(id, old);
    }
    if (!improved) break;
    cur.set(best_var, best_val);
    cur_dist = best_dist;
    result.placement.targets.push_back(best_var);
    result.placement.values.push_back(best_val);
    if (cur_dist == WorstCaseDistance::kDiverges) break;
  }

  if (cur_dist == WorstCaseDistance::kDiverges) {
    result.divergence_found = true;
    result.worst_case_steps = 0;
  } else {
    result.worst_case_steps = cur_dist;
  }

  // Extract the worst trace: follow max-distance successors down to S.
  constexpr std::size_t kTraceCap = 4096;
  std::uint64_t code = space.encode(cur);
  State walker(design.program.num_variables());
  const auto S = design.S();
  for (std::size_t i = 0; i <= kTraceCap; ++i) {
    space.decode_into(code, walker);
    result.worst_trace.push_back(walker);
    if (S(walker)) break;
    std::uint64_t next = 0;
    if (!wc.worst_successor(code, &next)) break;  // ¬S deadlock
    code = next;
  }

  result.observed = replay_placement(design, legitimate_state(design, opts),
                                     result.placement, opts);
  return result;
}

AdversaryResult hill_climb_adversary(const Design& design,
                                     const AdversaryOptions& opts,
                                     std::size_t k) {
  AdversaryResult result;
  result.exhaustive = false;
  const State base = legitimate_state(design, opts);
  Rng rng(derived_seed(opts.seed, 2));

  const auto score = [&](const FaultPlacement& placement) {
    ++result.evaluations;
    return objective(replay_placement(design, base, placement, opts),
                     opts.max_steps);
  };

  FaultPlacement best;
  std::uint64_t best_score = 0;
  bool have_best = false;
  for (std::size_t restart = 0; restart < opts.restarts; ++restart) {
    FaultPlacement local = random_placement(design, k, rng);
    std::uint64_t local_score = score(local);
    for (std::size_t iter = 0; iter < opts.iterations; ++iter) {
      FaultPlacement candidate = local;
      const std::size_t slot = rng.below(k);
      const auto& spec =
          design.program.variable(candidate.targets[slot]);
      if (k < design.program.num_variables() && rng.chance(0.3)) {
        // Re-target the slot to a variable not currently corrupted.
        VarId fresh;
        do {
          fresh = VarId(static_cast<std::uint32_t>(
              rng.below(design.program.num_variables())));
        } while (std::find(candidate.targets.begin(), candidate.targets.end(),
                           fresh) != candidate.targets.end());
        const auto& fresh_spec = design.program.variable(fresh);
        candidate.targets[slot] = fresh;
        candidate.values[slot] =
            static_cast<Value>(rng.range(fresh_spec.lo, fresh_spec.hi));
      } else {
        candidate.values[slot] =
            static_cast<Value>(rng.range(spec.lo, spec.hi));
      }
      const std::uint64_t s = score(candidate);
      if (s > local_score) {
        local = std::move(candidate);
        local_score = s;
      }
    }
    if (!have_best || local_score > best_score) {
      have_best = true;
      best = std::move(local);
      best_score = local_score;
    }
  }

  result.placement = std::move(best);
  result.placement.at_step = 0;
  result.worst_case_steps = best_score;
  result.divergence_found =
      best_score > static_cast<std::uint64_t>(opts.max_steps);
  result.observed = replay_placement(design, base, result.placement, opts);
  return result;
}

void write_state_values(util::JsonWriter& w, const State& s) {
  w.begin_array();
  for (std::uint32_t i = 0; i < s.size(); ++i) {
    w.value(static_cast<std::int64_t>(s.get(VarId(i))));
  }
  w.end_array();
}

}  // namespace

FaultModelPtr FaultPlacement::model() const {
  return std::make_shared<TargetedCorruption>(targets, values);
}

FaultSchedule FaultPlacement::schedule() const {
  return FaultSchedule::at(model(), at_step);
}

State legitimate_state(const Design& design, const AdversaryOptions& opts) {
  State s = design.program.initial_state();
  if (design.S()(s)) return s;
  RandomDaemon daemon(derived_seed(opts.seed, 0));
  RunOptions run_opts;
  run_opts.max_steps = opts.max_steps;
  return converge(design, std::move(s), daemon, run_opts).final_state;
}

AdversaryResult find_worst_placement(const Design& design,
                                     const AdversaryOptions& opts) {
  const std::size_t k = resolve_budget(design, opts);
  const bool exhaustive =
      !opts.force_hill_climb &&
      fits_in_budget(design.program, opts.exhaustive_budget);
  AdversaryResult result = exhaustive
                               ? greedy_adversary(design, opts, k)
                               : hill_climb_adversary(design, opts, k);
  if (obs::Metrics::enabled()) {
    auto& registry = obs::Registry::instance();
    registry.counter("resilience.adversary.searches").add(1);
    registry.counter("resilience.adversary.evaluations")
        .add(result.evaluations);
  }
  return result;
}

std::vector<std::uint64_t> random_placement_baseline(
    const Design& design, const AdversaryOptions& opts, std::size_t trials) {
  const std::size_t k = resolve_budget(design, opts);
  const State base = legitimate_state(design, opts);
  Rng master(derived_seed(opts.seed, 3));
  std::vector<std::uint64_t> steps;
  steps.reserve(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    Rng placement_rng(master());
    const std::uint64_t daemon_seed = master();
    const FaultPlacement placement =
        random_placement(design, k, placement_rng);
    State start = base;
    for (std::size_t i = 0; i < placement.targets.size(); ++i) {
      start.set(placement.targets[i], placement.values[i]);
    }
    RandomDaemon daemon(daemon_seed);
    RunOptions run_opts;
    run_opts.max_steps = opts.max_steps;
    const RunResult r = converge(design, std::move(start), daemon, run_opts);
    steps.push_back(r.converged
                        ? r.steps
                        : static_cast<std::uint64_t>(opts.max_steps) + 1);
  }
  return steps;
}

namespace {

/// Exhaustive subset enumeration runs only when there are at most this many
/// size-m subsets.
constexpr std::uint64_t kExhaustiveSubsets = 4096;
/// Steps of each hill-climb scoring simulation.
constexpr std::size_t kSimSteps = 2000;

/// Score a placement by exact containment analysis: worse = containment
/// lost outright, then larger radius, then larger adversarial region; total
/// order completed by the (sorted) placement itself so ties resolve
/// deterministically.
bool containment_worse(const ContainmentReport& a, const ContainmentReport& b) {
  if (a.contained != b.contained) return !a.contained;
  if (a.radius != b.radius) return a.radius > b.radius;
  if (a.reachable_states != b.reachable_states) {
    return a.reachable_states > b.reachable_states;
  }
  return a.byzantine < b.byzantine;
}

/// Hill-climb score: sampled damage radius plus dirty-process count from a
/// seeded simulation under a persistent ByzantineModel.
struct SimScore {
  int radius = 0;
  std::uint64_t dirty = 0;
};

bool sim_worse(const SimScore& a, const SimScore& b) {
  if (a.radius != b.radius) return a.radius > b.radius;
  return a.dirty > b.dirty;
}

SimScore simulate_byzantine(const Design& design, const std::vector<int>& byz,
                            const State& reference,
                            const ByzantinePlacementOptions& opts,
                            std::uint64_t salt) {
  auto model = std::make_shared<ByzantineModel>(design.program, byz);
  const std::vector<int> dist =
      distances_from(communication_graph(design.program), byz);
  std::vector<std::uint8_t> byz_var(design.program.num_variables(), 0);
  for (VarId v : model->variables()) byz_var[v.index()] = 1;

  SimScore score;
  std::vector<std::uint8_t> dirty(dist.size(), 0);
  Rng strike_rng(derived_seed(opts.seed, salt));
  RandomDaemon daemon(derived_seed(opts.seed, salt + 1));
  RunOptions run_opts;
  run_opts.max_steps = kSimSteps;
  run_opts.perturb = [&](std::size_t, State& s) {
    // Account the damage the *previous* program step left behind, then let
    // the adversary strike again.
    for (std::uint32_t v = 0; v < design.program.num_variables(); ++v) {
      if (byz_var[v] != 0) continue;
      const int p = design.program.variable(VarId(v)).process;
      if (p < 0 || dirty[static_cast<std::size_t>(p)] != 0) continue;
      if (s.get(VarId(v)) != reference.get(VarId(v))) {
        dirty[static_cast<std::size_t>(p)] = 1;
        ++score.dirty;
        const int d = dist[static_cast<std::size_t>(p)];
        if (d > score.radius) score.radius = d;
      }
    }
    model->strike(design.program, s, strike_rng);
  };
  Simulator sim(design.program, daemon);
  sim.run(reference, run_opts);
  return score;
}

std::vector<int> random_subset(int num_procs, std::size_t m, Rng& rng) {
  std::vector<int> procs(static_cast<std::size_t>(num_procs));
  for (int i = 0; i < num_procs; ++i) procs[static_cast<std::size_t>(i)] = i;
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t j = i + rng.below(procs.size() - i);
    std::swap(procs[i], procs[j]);
  }
  std::vector<int> out(procs.begin(), procs.begin() + static_cast<long>(m));
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t subset_count(int n, std::size_t m, std::uint64_t cap) {
  std::uint64_t count = 1;
  for (std::size_t i = 0; i < m; ++i) {
    count = count * static_cast<std::uint64_t>(n - static_cast<int>(i)) /
            (i + 1);
    if (count > cap) return cap + 1;
  }
  return count;
}

}  // namespace

ByzantinePlacementResult find_worst_byzantine_placement(
    const Design& design, const ByzantinePlacementOptions& opts) {
  const UndirectedGraph comm = communication_graph(design.program);
  const int num_procs = comm.size();
  if (num_procs < 2) {
    throw std::invalid_argument(
        "find_worst_byzantine_placement: need >= 2 processes");
  }
  const std::size_t m = std::min<std::size_t>(
      std::max<std::size_t>(opts.num_byzantine, 1),
      static_cast<std::size_t>(num_procs - 1));

  // The processes that own variables, ascending. A placement may use only
  // these (the composition rejects the others: there is nothing to
  // corrupt).
  std::vector<int> owners;
  for (const auto& v : design.program.variables()) {
    if (v.process >= 0) owners.push_back(v.process);
  }
  std::sort(owners.begin(), owners.end());
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
  if (owners.size() < m) {
    throw std::invalid_argument(
        "find_worst_byzantine_placement: no size-" + std::to_string(m) +
        " subset of processes owns variables");
  }

  ByzantinePlacementResult result;
  const bool exhaustive =
      !opts.force_hill_climb &&
      fits_in_budget(design.program, opts.exhaustive_budget) &&
      subset_count(num_procs, m, kExhaustiveSubsets) <= kExhaustiveSubsets;

  AdversaryOptions leg_opts;
  leg_opts.seed = opts.seed;
  const State legitimate = legitimate_state(design, leg_opts);

  if (exhaustive) {
    result.exhaustive = true;
    store::StoreConfig config = opts.containment;
    config.budget = opts.exhaustive_budget;
    // Lexicographic enumeration of all size-m subsets of the owners.
    const std::size_t n = owners.size();
    std::vector<std::size_t> pick(m);
    for (std::size_t i = 0; i < m; ++i) pick[i] = i;
    std::vector<int> subset(m);
    while (true) {
      for (std::size_t i = 0; i < m; ++i) subset[i] = owners[pick[i]];
      const ContainmentReport rep =
          measure_containment(design.program, subset, legitimate, config);
      ++result.evaluations;
      if (!result.report_exact || containment_worse(rep, result.report)) {
        result.report = rep;
        result.byzantine = rep.byzantine;
        result.report_exact = true;
      }
      // Advance to the next combination.
      std::size_t i = m;
      while (i > 0 && pick[i - 1] == n - m + i - 1) --i;
      if (i == 0) break;
      ++pick[i - 1];
      for (std::size_t j = i; j < m; ++j) pick[j] = pick[j - 1] + 1;
    }
  } else {
    Rng rng(derived_seed(opts.seed, 4));
    std::vector<int> best;
    SimScore best_score;
    bool have_best = false;
    std::uint64_t salt = 8;
    const auto placeable = [&owners](const std::vector<int>& byz) {
      return std::all_of(byz.begin(), byz.end(), [&owners](int p) {
        return std::binary_search(owners.begin(), owners.end(), p);
      });
    };
    for (std::size_t restart = 0; restart < opts.restarts; ++restart) {
      std::vector<int> local = random_subset(num_procs, m, rng);
      while (!placeable(local)) local = random_subset(num_procs, m, rng);
      SimScore local_score =
          simulate_byzantine(design, local, legitimate, opts, salt += 2);
      ++result.evaluations;
      for (std::size_t iter = 0; iter < opts.iterations; ++iter) {
        // Swap one member for a random outsider.
        std::vector<int> candidate = local;
        const std::size_t slot = rng.below(m);
        int fresh;
        do {
          fresh = static_cast<int>(rng.below(static_cast<std::size_t>(
              num_procs)));
        } while (std::find(candidate.begin(), candidate.end(), fresh) !=
                 candidate.end());
        candidate[slot] = fresh;
        std::sort(candidate.begin(), candidate.end());
        if (!placeable(candidate)) continue;
        const SimScore s =
            simulate_byzantine(design, candidate, legitimate, opts, salt += 2);
        ++result.evaluations;
        if (sim_worse(s, local_score)) {
          local = std::move(candidate);
          local_score = s;
        }
      }
      if (!have_best || sim_worse(local_score, best_score) ||
          (!sim_worse(best_score, local_score) && local < best)) {
        have_best = true;
        best = local;
        best_score = local_score;
      }
    }
    result.byzantine = std::move(best);
    result.report.byzantine = result.byzantine;
    result.report.radius = best_score.radius;
    // Exact containment for the winning placement when the space allows.
    try {
      result.report = measure_containment(design.program, result.byzantine,
                                          legitimate, opts.containment);
      result.report_exact = true;
    } catch (const StateSpaceTooLarge&) {
      result.report_exact = false;
    }
  }

  result.convergence_destroyed =
      result.report_exact && !result.report.contained;
  if (obs::Metrics::enabled()) {
    auto& registry = obs::Registry::instance();
    registry.counter("resilience.adversary.byzantine_searches").add(1);
    registry.counter("resilience.adversary.byzantine_evaluations")
        .add(result.evaluations);
  }
  return result;
}

std::string byzantine_placement_json(const Design& design,
                                     const ByzantinePlacementResult& r) {
  std::string out;
  util::JsonWriter w(&out);
  w.begin_object();
  w.key("design");
  w.value(design.name);
  w.key("mode");
  w.value(r.exhaustive ? "exhaustive-subsets" : "hill-climb");
  w.key("byzantine");
  w.begin_array();
  for (int p : r.byzantine) w.value(p);
  w.end_array();
  w.key("evaluations");
  w.value(r.evaluations);
  w.key("convergence_destroyed");
  w.value(r.convergence_destroyed);
  w.key("containment");
  if (r.report_exact) {
    w.raw(containment_to_json(design.program, r.report));
  } else {
    w.null();
  }
  w.end_object();
  return out;
}

std::string worst_trace_json(const Design& design, const AdversaryResult& r) {
  std::string out;
  util::JsonWriter w(&out);
  w.begin_object();
  w.key("design");
  w.value(design.name);
  w.key("mode");
  w.value(r.exhaustive ? "exhaustive-greedy" : "hill-climb");
  w.key("worst_case_steps");
  w.value(r.worst_case_steps);
  w.key("divergence_found");
  w.value(r.divergence_found);
  w.key("evaluations");
  w.value(r.evaluations);
  w.key("observed");
  w.begin_object();
  w.key("converged");
  w.value(r.observed.converged);
  w.key("steps");
  w.value(r.observed.steps);
  w.key("rounds");
  w.value(r.observed.rounds);
  w.key("moves");
  w.value(r.observed.moves);
  w.end_object();
  w.key("placement");
  w.begin_object();
  w.key("at_step");
  w.value(static_cast<std::uint64_t>(r.placement.at_step));
  w.key("targets");
  w.begin_array();
  for (VarId id : r.placement.targets) {
    w.value(design.program.variable(id).name);
  }
  w.end_array();
  w.key("values");
  w.begin_array();
  for (Value v : r.placement.values) w.value(static_cast<std::int64_t>(v));
  w.end_array();
  w.end_object();
  w.key("variables");
  w.begin_array();
  for (std::uint32_t i = 0; i < design.program.num_variables(); ++i) {
    w.value(design.program.variable(VarId(i)).name);
  }
  w.end_array();
  w.key("worst_trace");
  w.begin_array();
  for (const State& s : r.worst_trace) write_state_values(w, s);
  w.end_array();
  w.end_object();
  return out;
}

}  // namespace nonmask
