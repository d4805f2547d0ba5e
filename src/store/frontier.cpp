#include "store/frontier.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "store/odometer.hpp"

namespace nonmask::store {

namespace {

std::size_t chunk_count(std::uint64_t range, std::uint64_t grain) {
  return static_cast<std::size_t>((range + grain - 1) / grain);
}

}  // namespace

// A space of one scan chunk runs on the calling thread: its BFS levels are
// too small to pay for waking workers.
FrontierEngine::FrontierEngine(const StateSpace& space,
                               const StoreConfig& config)
    : space_(&space),
      config_(config),
      pool_(space.size() <= config.grain ? 1 : config.threads) {}

StateSet FrontierEngine::reachable(const PredicateFn& start,
                                   const std::vector<std::size_t>& actions,
                                   const FaultSpanOptions& opts) {
  obs::Span span("store.reach");
  const StateSpace& space = *space_;

  // Seed scan: evaluate `start` over the full range with odometer cursors
  // (no per-code div/mod), then seed in code order — the serial seeding
  // sequence.
  std::vector<std::uint64_t> seeds;
  {
    std::vector<std::vector<std::uint64_t>> seed_chunks(
        chunk_count(space.size(), config_.grain));
    parallel_for_chunked(
        pool_, 0, space.size(), config_.grain,
        [&](std::size_t chunk, std::uint64_t lo, std::uint64_t hi,
            unsigned worker) {
          (void)worker;
          OdometerCursor cur(space, lo);
          auto& out = seed_chunks[chunk];
          for (std::uint64_t code = lo; code < hi; ++code) {
            if (start(cur.state())) out.push_back(code);
            if (code + 1 < hi) cur.advance();
          }
        });
    for (const auto& chunk : seed_chunks) {
      seeds.insert(seeds.end(), chunk.begin(), chunk.end());
    }
  }
  return explore(std::move(seeds), actions, {}, opts);
}

StateSet FrontierEngine::reachable_from(std::vector<std::uint64_t> seeds,
                                        const std::vector<std::size_t>& actions,
                                        const LevelFn& on_level) {
  obs::Span span("store.reach");
  return explore(std::move(seeds), actions, on_level, {});
}

StateSet FrontierEngine::explore(std::vector<std::uint64_t> frontier,
                                 const std::vector<std::size_t>& actions,
                                 const LevelFn& on_level,
                                 const FaultSpanOptions& opts) {
  stats_ = {};
  const StateSpace& space = *space_;
  const Program& p = space.program();
  StateSet set(space);
  const std::uint64_t cap =
      opts.max_states == 0 ? space.size() : opts.max_states;
  obs::Counter* const explored = obs::explored_states();
  std::uint64_t counted = 0;
  obs::FrontierShare live_frontier;

  std::vector<State> scratch(pool_.size(), State(p.num_variables()));
  std::vector<State> next_scratch(pool_.size(), State(p.num_variables()));

  std::size_t seeded = 0;
  for (std::uint64_t code : frontier) {
    if (set.contains_code(code)) continue;
    set.insert_code(code);
    frontier[seeded++] = code;
  }
  frontier.resize(seeded);

  // Level-synchronous BFS with a merge in pop order: per-node successor
  // lists depend only on the node, and the serial merge replays the serial
  // BFS's insertion sequence and max_states truncation. Expansion
  // additionally drops successors that were already in `set` when the
  // level started — the merge would skip them anyway, so the result is
  // unchanged but the per-level buffers stay proportional to the *new*
  // states, not the total degree.
  struct NodeSuccs {
    std::vector<std::uint32_t> degree;  // kept successors per node
    std::vector<std::uint64_t> data;    // concatenated, in expansion order
  };
  while (!frontier.empty() && set.size() < cap) {
    const std::uint64_t fsize = frontier.size();
    ++stats_.levels;
    if (obs::Metrics::enabled()) {  // bound on the first level while on
      static obs::Counter& levels =
          obs::Registry::instance().counter("store.reach.levels");
      levels.add(1);
    }
    const std::uint64_t level_grain = std::min<std::uint64_t>(
        config_.grain,
        std::max<std::uint64_t>(
            1, fsize / (std::uint64_t{pool_.size()} * 8)));
    std::vector<NodeSuccs> level(chunk_count(fsize, level_grain));
    parallel_for_chunked(
        pool_, 0, fsize, level_grain,
        [&](std::size_t chunk, std::uint64_t lo, std::uint64_t hi,
            unsigned worker) {
          obs::Span chunk_span("store.reach.chunk");
          NodeSuccs& out = level[chunk];
          std::vector<std::uint64_t> succs;
          for (std::uint64_t i = lo; i < hi; ++i) {
            const std::uint64_t code = frontier[i];
            detail::expand_reachable(space, actions, opts, code,
                                     scratch[worker], next_scratch[worker],
                                     succs);
            std::uint32_t kept = 0;
            for (std::uint64_t succ : succs) {
              if (set.contains_code(succ)) continue;  // pre-filter (see above)
              out.data.push_back(succ);
              ++kept;
            }
            out.degree.push_back(kept);
          }
        });

    std::vector<std::uint64_t> next;
    bool capped = false;
    for (const NodeSuccs& chunk : level) {
      std::size_t offset = 0;
      for (std::uint32_t deg : chunk.degree) {
        if (set.size() >= cap) {  // the serial loop stops popping here
          capped = true;
          break;
        }
        ++stats_.expanded;
        for (std::uint32_t k = 0; k < deg; ++k) {
          const std::uint64_t succ = chunk.data[offset + k];
          if (!set.contains_code(succ)) {
            set.insert_code(succ);
            next.push_back(succ);
          }
        }
        offset += deg;
      }
      if (capped) break;
    }
    if (on_level && !next.empty()) on_level(next);
    if (capped) break;
    frontier = std::move(next);
    live_frontier.set(frontier.size());
    if (explored != nullptr) explored->add(set.size() - counted);
    counted = set.size();
  }
  // A last level the cap cut short, or seeds that reached the cap, count
  // here: the pass counts each state of its set once.
  if (explored != nullptr) explored->add(set.size() - counted);

  if (obs::Metrics::enabled()) {
    auto& registry = obs::Registry::instance();
    registry.counter("store.reach.expanded").add(stats_.expanded);
    registry.counter("store.reach.states").add(set.size());
  }
  return set;
}

}  // namespace nonmask::store
