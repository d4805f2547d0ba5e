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
// from the fault-free fixpoint by the engine's level-synchronous BFS
// (store::FrontierEngine::reachable_from), which hands each level's new
// states to the dirty accounting here. The levels arrive in the same order
// at any thread count and the accounting is a monotone union, so the
// result is byte-identical at any thread count.
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

/// The fault-free fixpoint containment measures deviation against: the
/// program run from a legitimate state, firing the lowest-index enabled
/// closure/convergence action each step, for at most 2^20 steps (the
/// radius is a worst case over adversary choices, not daemon choices; the
/// tie-break merely pins one reproducible fixpoint). It depends on neither
/// the Byzantine placement nor the budget, so a placement search computes
/// it once for all the placements it measures.
struct ContainmentFixpoint {
  State state;
  bool reached = false;  ///< no closure/convergence action enabled at `state`
  std::size_t steps = 0;
};

ContainmentFixpoint containment_fixpoint(const Program& program,
                                         const State& legitimate);

/// Measure the containment radius of `program` under Byzantine `byzantine`:
/// explore everything reachable from `fixpoint` (containment_fixpoint of
/// the same program) under the composed program∪adversary system
/// (compose_byzantine) and report how far from the Byzantine set any
/// variable ever deviates from it. `config` gives the composed space's
/// state budget and the BFS's thread count. Throws StateSpaceTooLarge when
/// the composed space exceeds `config.budget` (the adversarial placement
/// search falls back to simulation scoring there) and
/// std::invalid_argument for bad placements (via compose_byzantine).
ContainmentReport measure_containment(const Program& program,
                                      const std::vector<int>& byzantine,
                                      const ContainmentFixpoint& fixpoint,
                                      const store::StoreConfig& config = {});

/// The report as a JSON object (one line, no trailing newline) — the
/// containment-report artifact CI uploads, and the payload RunReport and
/// the dashboard ingest.
std::string containment_to_json(const Program& program,
                                const ContainmentReport& report);

}  // namespace nonmask
