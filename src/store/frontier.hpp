// Chunked parallel frontier engine: the engine's fault-span /
// reachability pass and the containment pass's BFS, a level-synchronous
// BFS whose frontier is one vector of codes. Its chunks are read in place
// from the thread pool's shared queue (idle workers steal the next chunk),
// each worker expanding into its own output buffer, with the buffers
// merged serially in chunk order.
// The merge replays the serial BFS's insertion sequence exactly — same
// StateSet, same max_states truncation — with a visited pre-filter (safe:
// it only drops successors the merge would skip anyway).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "checker/fault_span.hpp"
#include "checker/state_space.hpp"
#include "parallel/thread_pool.hpp"
#include "store/config.hpp"

namespace nonmask::store {

struct FrontierStats {
  std::uint64_t levels = 0;    ///< BFS levels
  std::uint64_t expanded = 0;  ///< frontier nodes expanded
};

class FrontierEngine {
 public:
  /// Receives one BFS level's new codes, in insertion order.
  using LevelFn = std::function<void(const std::vector<std::uint64_t>&)>;

  FrontierEngine(const StateSpace& space, const StoreConfig& config);

  /// Store-backed compute_reachable: BFS closure of `start` under
  /// `actions`, byte-identical to the serial checker's StateSet.
  StateSet reachable(const PredicateFn& start,
                     const std::vector<std::size_t>& actions,
                     const FaultSpanOptions& opts = {});

  /// The same BFS from the codes `seeds` (inserted in order, repeats
  /// ignored) instead of a scan for a start predicate. `on_level` receives
  /// each level's new codes after the level is merged and before the next
  /// one expands, including a last level that fills the space before it
  /// is fully merged; levels that add nothing are not handed over.
  StateSet reachable_from(std::vector<std::uint64_t> seeds,
                          const std::vector<std::size_t>& actions,
                          const LevelFn& on_level);

  const FrontierStats& stats() const noexcept { return stats_; }
  unsigned threads() const noexcept { return pool_.size(); }

 private:
  /// The BFS behind both entry points, seeded with `frontier`.
  StateSet explore(std::vector<std::uint64_t> frontier,
                   const std::vector<std::size_t>& actions,
                   const LevelFn& on_level, const FaultSpanOptions& opts);

  const StateSpace* space_;
  StoreConfig config_;
  ThreadPool pool_;
  FrontierStats stats_;
};

}  // namespace nonmask::store
