#include "checker/falsify.hpp"

#include <utility>
#include <vector>

#include "store/concurrent_set.hpp"
#include "store/packed.hpp"
#include "util/rng.hpp"

namespace nonmask {

namespace {

/// Fixed hash seed for the falsification dedup sets: probes must be
/// reproducible run to run, so the seed is not derived from the walk RNG.
constexpr std::uint64_t kProbeHashSeed = 0x9e3779b97f4a7c15ULL;

/// Fraction of walk steps that greedily maximize constraint violations
/// (adversarial bias); the rest pick an enabled action uniformly.
constexpr double kAdversarialBias = 0.5;

}  // namespace

FalsifyResult falsify_convergence(const Design& design,
                                  const FalsifyOptions& opts) {
  const Program& p = design.program;
  const PredicateFn S = design.S();
  const PredicateFn T = design.T();
  FalsifyResult result;
  Rng rng(opts.seed);

  // Visited-state dedup runs through the packed store: states intern into
  // bit-packed records (a few words instead of a full State each), and the
  // single-shard set hands back dense ids 0, 1, ... in insertion order, so
  // the path position of a state is just a sidecar vector indexed by id.
  store::PackedLayout layout(p);
  std::vector<std::uint64_t> words(layout.words());
  State next;  // scratch successor for the adversarial scoring

  // Kept across steps and walks, so a walk allocates only when it goes
  // deeper than every earlier one: the enabled action indices, each
  // visited state's path position by dense id, and the path itself, whose
  // first `depth` States hold this walk's visited ¬S states in visit order
  // (a State is overwritten in place, reusing its storage).
  std::vector<std::size_t> enabled;
  std::vector<std::size_t> pos_by_id;
  std::vector<State> path;

  for (std::uint64_t walk = 0; walk < opts.walks; ++walk) {
    ++result.walks_run;
    State s = opts.make_start ? opts.make_start(p, rng) : p.random_state(rng);
    if (!T(s)) continue;  // computations start inside the fault-span

    store::ConcurrentPackedSet index(layout, /*shard_bits=*/0, kProbeHashSeed);
    pos_by_id.clear();
    std::size_t depth = 0;

    for (std::uint64_t step = 0; step < opts.max_walk_length; ++step) {
      ++result.steps_taken;
      if (S(s)) break;  // this walk converged; try another

      // Revisit check: a repeated ¬S state closes a cycle outside S.
      layout.pack(s, words.data());
      const auto [id, fresh] = index.insert(words.data());
      if (!fresh) {
        const std::size_t pos = pos_by_id[static_cast<std::size_t>(id)];
        result.violated = true;
        result.cycle.emplace(path.begin() + static_cast<long>(pos),
                             path.begin() + static_cast<long>(depth));
        return result;
      }
      pos_by_id.push_back(depth);
      if (depth == path.size()) {
        path.push_back(s);
      } else {
        path[depth] = s;
      }
      ++depth;

      p.enabled_actions(s, enabled);
      if (enabled.empty()) {
        result.violated = true;
        result.deadlock = s;
        return result;
      }

      // Pick the next action: adversarially biased or uniform.
      std::size_t choice = enabled[rng.below(enabled.size())];
      if (rng.chance(kAdversarialBias) && design.invariant.size() != 0) {
        std::size_t best_score = 0;
        for (std::size_t idx : enabled) {
          p.action(idx).apply_into(s, next);
          const std::size_t score = design.invariant.violation_count(next);
          if (score >= best_score) {
            best_score = score;
            choice = idx;
          }
        }
      }
      p.action(choice).execute(s);
    }
  }
  return result;
}

FalsifyResult probe_violation_from(const Design& design, const State& start,
                                   const ProbeOptions& opts) {
  const Program& p = design.program;
  const PredicateFn S = design.S();
  const PredicateFn T = design.T();
  FalsifyResult result;
  if (!T(start) || S(start)) return result;
  result.walks_run = 1;

  // Iterative DFS with three-color marking: a gray (on-stack) revisit is a
  // back edge, i.e. a ¬S cycle. Visited states intern into the packed
  // store (single shard -> dense ids), with the colors in a one-byte
  // sidecar indexed by id — the probe's footprint per visited state is the
  // packed record + 1 byte instead of a stored State.
  constexpr std::uint8_t kGray = 1;
  constexpr std::uint8_t kBlack = 2;
  store::PackedLayout layout(p);
  store::ConcurrentPackedSet seen(layout, /*shard_bits=*/0, kProbeHashSeed);
  std::vector<std::uint8_t> color;  // by dense id; 0 = never seen
  std::vector<std::uint64_t> words(layout.words());

  // Frames [0, depth) are the DFS stack. A popped frame keeps its State
  // and enabled buffer for the next push at its depth, and successors are
  // built in one scratch State, so a probe allocates per depth it reaches,
  // not per step.
  struct Frame {
    State state;
    std::vector<std::size_t> enabled;
    std::size_t next = 0;
    std::uint64_t id = 0;  ///< dense id in `seen`, for the pop-time marking
  };
  std::vector<Frame> stack;
  std::size_t depth = 0;
  State succ;
  std::uint64_t visited = 0;

  auto push = [&](const State& s) -> bool {
    if (++visited > opts.max_states) return false;
    layout.pack(s, words.data());
    const std::uint64_t id = seen.insert(words.data()).first;
    if (color.size() <= id) color.resize(static_cast<std::size_t>(id) + 1, 0);
    color[static_cast<std::size_t>(id)] = kGray;
    if (depth == stack.size()) stack.emplace_back();
    Frame& frame = stack[depth];
    p.enabled_actions(s, frame.enabled);
    if (frame.enabled.empty()) {
      result.violated = true;
      result.deadlock = s;
      return false;
    }
    frame.state = s;
    frame.next = 0;
    frame.id = id;
    ++depth;
    return true;
  };

  if (!push(start)) return result;
  while (depth > 0) {
    Frame& top = stack[depth - 1];
    if (top.next == top.enabled.size()) {
      color[static_cast<std::size_t>(top.id)] = kBlack;
      --depth;
      continue;
    }
    ++result.steps_taken;
    p.action(top.enabled[top.next++]).apply_into(top.state, succ);
    if (S(succ)) continue;  // converging branch; nothing to report here
    layout.pack(succ, words.data());
    if (const auto id = seen.find(words.data())) {
      if (color[static_cast<std::size_t>(*id)] == kGray) {
        // Extract the cycle: the stack suffix from succ's frame down.
        std::vector<State> cycle;
        std::size_t at = depth;
        while (at > 0 && !(stack[at - 1].state == succ)) --at;
        for (std::size_t i = at == 0 ? 0 : at - 1; i < depth; ++i) {
          cycle.push_back(stack[i].state);
        }
        result.violated = true;
        result.cycle = std::move(cycle);
        return result;
      }
      continue;  // black: already explored, no violation beneath it
    }
    if (!push(succ)) return result;
  }
  return result;
}

}  // namespace nonmask
