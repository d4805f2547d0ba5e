// Containment analysis for Byzantine fault models.
//
// With transient faults the whole question is *whether* the program
// converges; with permanent Byzantine processes it cannot (the adversary
// re-corrupts forever), so the right question becomes *how far* the damage
// spreads. Following Dubois–Masuzawa–Tixeuil, the **containment radius** of
// a protocol under a Byzantine placement is the maximum topology distance
// from a Byzantine node at which any correct process's variable can differ
// from its fault-free fixpoint value, over the entire region reachable while
// the adversary acts. A protocol *contains* the placement when that radius
// is strictly below the topology horizon (some correct process provably
// keeps its fixpoint values no matter what the adversary does); the
// spanning-tree protocol contains leaf/deep placements with a radius of the
// min+1 shape, while token rings do not contain at all (the corrupted token
// circulates).
//
// The analysis is exhaustive and store-native: the composed
// program∪adversary transition system (checker/restricted.hpp) is explored
// by a level-synchronous BFS from the fault-free fixpoint, with per-level
// expansion fanned out one frontier item at a time over a thread pool.
// Dirty accounting is a monotone union, so the result is byte-identical at
// any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checker/restricted.hpp"
#include "checker/state_space.hpp"
#include "core/program.hpp"
#include "store/config.hpp"

namespace nonmask {

struct ContainmentReport {
  std::vector<int> byzantine;  ///< the adversarial placement measured

  /// Max distance of a *dirty* correct process from the Byzantine set
  /// (0 = damage never leaves the Byzantine nodes).
  int radius = 0;
  /// Max finite distance of any correct process from the Byzantine set —
  /// the worst the radius could be.
  int horizon = 0;
  /// radius < horizon: some correct process keeps its fixpoint values no
  /// matter what the adversary does.
  bool contained = false;

  bool fixpoint_reached = false;  ///< fault-free iteration quiesced in budget
  std::size_t fixpoint_steps = 0;

  std::uint64_t reachable_states = 0;  ///< size of the adversarial region
  std::uint64_t levels = 0;            ///< BFS depth of the region
  /// Last BFS level at which a new process turned dirty: after this many
  /// composed steps the damage footprint has stopped growing.
  std::uint64_t time_to_containment = 0;

  std::vector<int> process_distance;      ///< hops from Byzantine set; -1 =
                                          ///< unreachable in the comm graph
  std::vector<std::uint8_t> process_dirty;  ///< 1 = some owned variable
                                            ///< deviates somewhere in region
};

/// Measure the containment radius of `program` under Byzantine `byzantine`:
///  1. run the program fault-free from `legitimate` to its deterministic
///     fixpoint (lowest-index enabled action, at most 2^20 steps — the
///     worst case is over adversary choices, not daemon choices);
///  2. explore everything reachable from that fixpoint under the composed
///     program∪adversary system (compose_byzantine);
///  3. report how far from the Byzantine set any variable ever deviates.
/// `config` gives the composed space's state budget and the level BFS's
/// thread count. Throws StateSpaceTooLarge when the composed space exceeds
/// `config.budget` (the adversarial placement search falls back to
/// simulation scoring there) and std::invalid_argument for bad placements
/// (via compose_byzantine).
ContainmentReport measure_containment(const Program& program,
                                      const std::vector<int>& byzantine,
                                      const State& legitimate,
                                      const store::StoreConfig& config = {});

/// The report as a JSON object (one line, no trailing newline) — the
/// containment-report artifact CI uploads, and the payload RunReport and
/// the dashboard ingest.
std::string containment_to_json(const Program& program,
                                const ContainmentReport& report);

}  // namespace nonmask
