// Chunked parallel frontier engine.
//
// Forward mode (`reachable`) is the engine's fault-span / reachability
// pass: a level-synchronous BFS whose frontier chunks are consumed from
// the thread pool's shared queue (idle workers steal the next chunk), each
// worker expanding into its own output buffer, with the buffers merged
// serially in chunk order. The merge replays the serial BFS's insertion
// sequence exactly — same StateSet, same max_states truncation — with a
// visited pre-filter (safe: it only drops successors the merge would skip
// anyway) and an optional disk spill so frontiers larger than RAM stream
// through a temp file instead of failing.
//
// Backward mode (`backward_distances`) computes min-steps-to-target for
// every code without materializing a predecessor graph: each round scans
// the unresolved codes in parallel and resolves those with a successor
// resolved in an earlier round — the round number *is* the distance. The
// distances land in a generation-stamped array, so repeated calls (e.g.
// per fault placement) reuse one allocation with an O(1) reset.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "checker/fault_span.hpp"
#include "checker/state_space.hpp"
#include "parallel/thread_pool.hpp"
#include "store/bitset.hpp"
#include "store/config.hpp"

namespace nonmask::store {

/// A code buffer that transparently spills to a temp file past a
/// threshold. Append happens serially (during the merge phase); ranged
/// reads are thread-safe (pread) and serve the parallel expansion phase.
class SpillableFrontier {
 public:
  /// threshold 0 = never spill. `dir` empty = system temp directory.
  SpillableFrontier(std::uint64_t threshold, const std::string& dir);
  ~SpillableFrontier();
  SpillableFrontier(const SpillableFrontier&) = delete;
  SpillableFrontier& operator=(const SpillableFrontier&) = delete;

  void append(std::uint64_t code);
  std::uint64_t size() const noexcept { return spilled_ + mem_.size(); }
  bool spilled() const noexcept { return spilled_ > 0; }

  /// Copy codes [lo, hi) into `out` (cleared first). Thread-safe against
  /// other reads; must not run concurrently with append().
  void read(std::uint64_t lo, std::uint64_t hi,
            std::vector<std::uint64_t>& out) const;

  void clear();

 private:
  void flush_mem();

  std::uint64_t threshold_;
  std::string dir_;
  std::vector<std::uint64_t> mem_;
  std::uint64_t spilled_ = 0;  ///< codes already written to the file
  int fd_ = -1;
};

struct FrontierStats {
  std::uint64_t levels = 0;     ///< BFS levels (== rounds for backward)
  std::uint64_t expanded = 0;   ///< frontier nodes expanded
  std::uint64_t spills = 0;     ///< levels that overflowed to disk
};

class FrontierEngine {
 public:
  FrontierEngine(const StateSpace& space, const StoreConfig& config);

  /// Store-backed compute_reachable: BFS closure of `start` under
  /// `actions`, byte-identical to the serial checker's StateSet.
  StateSet reachable(const PredicateFn& start,
                     const std::vector<std::size_t>& actions,
                     const FaultSpanOptions& opts = {});

  /// Min-steps-to-target distances for every code (backward BFS by
  /// forward scans; see header comment). Returns the number of resolved
  /// codes; unresolved codes keep StampedDistanceArray::kUnset. Rounds
  /// stop at `max_rounds` (0 = no cap).
  std::uint64_t backward_distances(const PredicateFn& target,
                                   const std::vector<std::size_t>& actions,
                                   StampedDistanceArray& dist,
                                   std::uint32_t max_rounds = 0);

  const FrontierStats& stats() const noexcept { return stats_; }
  unsigned threads() const noexcept { return pool_.size(); }

 private:
  const StateSpace* space_;
  StoreConfig config_;
  ThreadPool pool_;
  FrontierStats stats_;
};

}  // namespace nonmask::store
