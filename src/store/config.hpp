// Configuration of the checker engine (store/facade.hpp): the state budget,
// the worker count and chunk grain of its parallel passes, and the
// concurrent set's shape. No field changes an answer — reports are
// byte-identical at any thread count, grain, or shard count.
#pragma once

#include <cstdint>

namespace nonmask::store {

/// The engine that produced a report, recorded in run reports as
/// "store_backend". The compact store pipeline is the only one.
enum class StoreBackend {
  kStore,  ///< src/store/ packed bitmaps + frontier engine
};

const char* to_string(StoreBackend b) noexcept;

struct StoreConfig {
  StoreBackend backend = StoreBackend::kStore;

  /// State budget passed to StateSpace construction (the default matches
  /// StateSpace::kDefaultBudget); the engine routinely runs two to three
  /// orders of magnitude higher.
  std::uint64_t budget = 32'000'000;

  /// Worker threads for the parallel passes; 0 = NONMASK_THREADS env, else
  /// hardware concurrency.
  unsigned threads = 0;

  /// Codes per scan chunk. Results never depend on it; with `threads`,
  /// it decides whether a space is split at all (one chunk runs inline).
  std::uint64_t grain = 1 << 16;

  /// log2 of the concurrent-set shard count (power-of-two shards).
  unsigned shard_bits = 6;

  /// Seed for the set's mixing-finalizer hash (any value works; fixed by
  /// default so shard occupancy is reproducible).
  std::uint64_t hash_seed = 0x5307e5eedULL;

  /// Environment-driven default:
  ///   NONMASK_STATE_BUDGET  = max states for StateSpace construction
  ///   NONMASK_THREADS       = resolved by the pool as usual
  static StoreConfig from_env();
};

}  // namespace nonmask::store
