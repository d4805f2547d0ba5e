#include "synth/synthesize.hpp"

#include <algorithm>
#include <utility>

#include "checker/falsify.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/span.hpp"
#include "parallel/thread_pool.hpp"
#include "store/facade.hpp"
#include "synth/prune.hpp"

namespace nonmask::synth {

namespace {

/// Per-combination verdict from the parallel phase. kSurvived combinations
/// proceed to the serial phase (late seed screen + exact check).
enum class EvalStatus { kSeedPruned, kFalsified, kSurvived };

struct EvalOutcome {
  EvalStatus status = EvalStatus::kSurvived;
  /// Violating states harvested from the falsifier (kFalsified only).
  std::vector<State> states;
};

/// Decode a mixed-radix combination index into one pool choice per
/// constraint (constraint 0 varies fastest).
std::vector<std::size_t> decode_combination(
    std::uint64_t index, const std::vector<std::size_t>& pool_sizes) {
  std::vector<std::size_t> choice(pool_sizes.size(), 0);
  for (std::size_t c = 0; c < pool_sizes.size(); ++c) {
    choice[c] = static_cast<std::size_t>(index % pool_sizes[c]);
    index /= pool_sizes[c];
  }
  return choice;
}

/// Random-walk falsification effort per surviving combination.
constexpr std::uint64_t kFalsifyWalks = 24;
constexpr std::uint64_t kFalsifyWalkLength = 256;

/// Distinct, reproducible falsifier seed per combination.
std::uint64_t falsify_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void harvest(const FalsifyResult& r, std::vector<State>& out) {
  if (r.cycle) out.insert(out.end(), r.cycle->begin(), r.cycle->end());
  if (r.deadlock) out.push_back(*r.deadlock);
}

}  // namespace

SynthesisResult synthesize(const CandidateTriple& candidate,
                           const SynthesisOptions& opts) {
  obs::Span run_span("synth.run");
  SynthesisResult result;

  if (candidate.invariant.size() == 0) {
    result.failure = "candidate has no constraints to establish";
    return result;
  }
  if (!candidate.program.actions_of_kind(ActionKind::kConvergence).empty()) {
    result.failure = "candidate program already contains convergence actions";
    return result;
  }
  if (!fits_in_budget(candidate.program, opts.store.budget)) {
    result.failure =
        "candidate state space exceeds the budget; the exact oracle is "
        "unavailable";
    return result;
  }
  const StateSpace base_space(candidate.program, opts.store.budget);

  // --- Phase 1: enumerate and locally prune per-constraint pools. --------
  std::vector<std::vector<ActionCandidate>> pools;
  std::vector<std::vector<Action>> pool_actions;  // prebuilt, pool-parallel
  {
    obs::Span span("synth.enumerate");
    for (std::size_t cid = 0; cid < candidate.invariant.size(); ++cid) {
      const Constraint& c = candidate.invariant.at(cid);
      auto enumerated = enumerate_candidates(candidate.program,
                                             candidate.invariant, cid,
                                             opts.grammar);
      result.stats.enumerated_actions += enumerated.size();
      std::vector<ActionCandidate> kept;
      std::vector<Action> kept_actions;
      for (auto& cand : enumerated) {
        Action action = cand.build(candidate.program, c);
        if (prune_local(candidate, action, c, base_space).ok()) {
          kept.push_back(std::move(cand));
          kept_actions.push_back(std::move(action));
        } else {
          ++result.stats.local_pruned_actions;
        }
      }
      result.pools.push_back({c.name, enumerated.size(), kept.size()});
      if (kept.empty()) {
        result.failure = "no candidate action for constraint '" + c.name +
                         "' survives local pruning";
        return result;
      }
      pools.push_back(std::move(kept));
      pool_actions.push_back(std::move(kept_actions));
    }
  }

  std::vector<std::size_t> pool_sizes;
  result.total_combinations = 1;
  for (const auto& pool : pools) {
    pool_sizes.push_back(pool.size());
    if (result.total_combinations >
        UINT64_MAX / static_cast<std::uint64_t>(pool.size())) {
      result.total_combinations = UINT64_MAX;  // saturate
    } else {
      result.total_combinations *= static_cast<std::uint64_t>(pool.size());
    }
  }
  const std::uint64_t limit =
      std::min<std::uint64_t>(result.total_combinations, opts.max_candidates);

  auto build_design = [&](std::uint64_t index,
                          std::vector<std::size_t>* choice_out) {
    const auto choice = decode_combination(index, pool_sizes);
    std::vector<Action> actions;
    actions.reserve(choice.size());
    for (std::size_t c = 0; c < choice.size(); ++c) {
      actions.push_back(pool_actions[c][choice[c]]);
    }
    if (choice_out != nullptr) *choice_out = choice;
    return candidate.augmented(std::move(actions));
  };

  // --- Phase 2: batched CEGIS over the combination space. ----------------
  ThreadPool workers(opts.store.threads);
  obs::ProgressMeter meter("synth", limit);
  SeedBank bank;
  bool found = false;

  for (std::uint64_t batch_start = 0; batch_start < limit && !found;
       batch_start += opts.batch) {
    const std::uint64_t batch_end =
        std::min<std::uint64_t>(batch_start + std::max<std::size_t>(
                                                  opts.batch, 1),
                                limit);
    const std::size_t n = static_cast<std::size_t>(batch_end - batch_start);
    ++result.stats.batches;
    obs::Span batch_span("synth.batch");

    // Parallel phase: every combination sees the same seed-bank snapshot
    // (the bank is not mutated until the serial phase below).
    const std::size_t snapshot = bank.size();
    std::vector<EvalOutcome> outcomes(n);
    parallel_for_each(workers, n, [&](std::size_t i, unsigned) {
      const std::uint64_t index = batch_start + i;
      const Design design = build_design(index, nullptr);
      EvalOutcome& out = outcomes[i];
      for (std::size_t si = 0; si < snapshot; ++si) {
        if (probe_violation_from(design, bank.seeds()[si]).violated) {
          out.status = EvalStatus::kSeedPruned;
          return;
        }
      }
      FalsifyOptions fo;
      fo.walks = kFalsifyWalks;
      fo.max_walk_length = kFalsifyWalkLength;
      fo.seed = falsify_seed(opts.seed, index);
      const FalsifyResult fr = falsify_convergence(design, fo);
      if (fr.violated) {
        out.status = EvalStatus::kFalsified;
        harvest(fr, out.states);
        return;
      }
      out.status = EvalStatus::kSurvived;
    });

    // Serial phase, in combination order: merge counterexamples, re-screen
    // survivors against seeds banked since the snapshot, exact-check.
    for (std::size_t i = 0; i < n && !found; ++i) {
      const std::uint64_t index = batch_start + i;
      ++result.stats.evaluated;
      EvalOutcome& out = outcomes[i];
      if (out.status == EvalStatus::kSeedPruned) {
        ++result.stats.pruned_by_seed;
        continue;
      }
      if (out.status == EvalStatus::kFalsified) {
        ++result.stats.falsified;
        bank.add_all(out.states);
        continue;
      }

      std::vector<std::size_t> choice;
      const Design design = build_design(index, &choice);
      bool pruned_late = false;
      for (std::size_t si = snapshot; si < bank.size(); ++si) {
        if (probe_violation_from(design, bank.seeds()[si]).violated) {
          pruned_late = true;
          break;
        }
      }
      if (pruned_late) {
        ++result.stats.pruned_by_seed;
        continue;
      }

      ++result.stats.exact_checks;
      const StateSpace space(design.program, opts.store.budget);
      const ToleranceReport report =
          store::verify_tolerance_via(opts.store, space, design);
      if (!report.tolerant()) {
        ++result.stats.exact_failures;
        if (report.convergence.cycle) bank.add_all(*report.convergence.cycle);
        if (report.convergence.deadlock) bank.add(*report.convergence.deadlock);
        continue;
      }

      found = true;
      result.success = true;
      result.design = design;
      result.design.name = opts.design_name.empty()
                               ? candidate.program.name() + "-synth"
                               : opts.design_name;
      result.winner_index = index;
      result.winner_choice = choice;
      for (std::size_t c = 0; c < choice.size(); ++c) {
        result.winner_actions.push_back(pools[c][choice[c]]);
        result.winner_descriptions.push_back(
            pool_actions[c][choice[c]].name());
      }
      result.exact = report;
    }
    meter.add(n);
    meter.aux("seeds", bank.size());
  }
  result.stats.seeds_collected = bank.size();

  if (!result.success) {
    result.failure = "no tolerant combination among the " +
                     std::to_string(result.stats.evaluated) + " evaluated (" +
                     std::to_string(result.total_combinations) + " total)";
    return result;
  }

  // --- Phase 3: certification cascade + independent audit. ---------------
  {
    obs::Span span("synth.certify");
    const StateSpace space(result.design.program, opts.store.budget);
    result.certification = certify_design(result.design, space);
  }

  if (obs::Metrics::enabled()) {
    auto& reg = obs::Registry::instance();
    reg.counter("synth.evaluated").add(result.stats.evaluated);
    reg.counter("synth.pruned_by_seed").add(result.stats.pruned_by_seed);
    reg.counter("synth.falsified").add(result.stats.falsified);
    reg.counter("synth.exact_checks").add(result.stats.exact_checks);
    reg.counter("synth.seeds").add(result.stats.seeds_collected);
  }
  return result;
}

}  // namespace nonmask::synth
