// Sharded concurrent hash set of packed states.
//
// The visited-set is the scaling bottleneck of every frontier search: at
// 10^8 states a std::unordered_set<State> costs ~100 bytes/state and a
// global lock serializes the workers. This set shards the key space into a
// power-of-two number of independent open-addressing tables (shard chosen
// by the *high* bits of a seeded mixing-finalizer hash, probe position by
// the low bits), each guarded by its own mutex and interning records into
// its own arena — workers contend only when they hash into the same shard.
//
// insert() returns a stable id composed as (local_id << shard_bits) |
// shard, so with one shard (shard_bits = 0) ids are dense 0, 1, ... — the
// form the serial falsification probe uses to index sidecar arrays.
//
// get() returns arena pointers that never move; calling it concurrently
// with inserts into the same shard requires no synchronization *after* the
// inserting thread has been joined or otherwise synchronized-with (the
// frontier engine only reads between parallel phases).
//
// Shards materialize on first touch, not in the constructor: the worker
// that first inserts into (or explicitly touch()es) a shard allocates its
// table and arena, so under a first-touch NUMA policy the shard's pages
// land on that worker's node. Per-worker shard affinity then keeps the hot
// tables local: give each worker a contiguous shard range to pre-touch
// (worker w of n owns shards [w*count/n, (w+1)*count/n)) before a parallel
// insert phase, as bench_store does. Creation races are resolved with one
// compare-exchange per shard; losers free their candidate.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "store/arena.hpp"
#include "store/packed.hpp"

namespace nonmask::store {

/// Telemetry sees the set only through the registry counters its insert
/// path feeds (store.set.probes, .grows, .cas_retries; one relaxed load
/// each while metrics are off). The set registers nowhere, so building and
/// dropping one — falsify does so per walk — takes no lock outside it.
class ConcurrentPackedSet {
 public:
  /// 2^shard_bits shards; `expected` sizes each shard's table for
  /// expected/2^shard_bits entries at materialization (they still grow on
  /// demand).
  ConcurrentPackedSet(const PackedLayout& layout, unsigned shard_bits,
                      std::uint64_t seed, std::uint64_t expected = 0);
  ~ConcurrentPackedSet();

  ConcurrentPackedSet(const ConcurrentPackedSet&) = delete;
  ConcurrentPackedSet& operator=(const ConcurrentPackedSet&) = delete;

  /// Intern `words`; returns (id, true) on first insertion and the
  /// existing (id, false) thereafter. Thread-safe.
  std::pair<std::uint64_t, bool> insert(const std::uint64_t* words);

  /// Id of `words` if present. Thread-safe.
  std::optional<std::uint64_t> find(const std::uint64_t* words) const;

  bool contains(const std::uint64_t* words) const {
    return find(words).has_value();
  }

  /// Materialize shard `index` from the calling thread (first-touch page
  /// placement). Thread-safe, idempotent, never blocks behind an existing
  /// shard's lock.
  void touch(unsigned index);

  /// Stable pointer to the packed words of `id` (see header comment for
  /// the synchronization contract). `id` must come from insert()/find(),
  /// so its shard exists.
  const std::uint64_t* get(std::uint64_t id) const {
    return slots_[id & shard_mask_].load(std::memory_order_acquire)
        ->arena.get(id >> shard_bits_);
  }

  /// Total interned states (takes every materialized shard's lock).
  std::uint64_t size() const;

  unsigned shard_count() const noexcept {
    return static_cast<unsigned>(slots_.size());
  }

  struct ShardStats {
    std::uint64_t size = 0;
    std::uint64_t capacity = 0;
    std::uint64_t max_probe = 0;  ///< longest insert probe sequence
    std::uint64_t bytes = 0;      ///< arena slab bytes
  };
  /// Per-shard occupancy, for the bench's shard-balance report; untouched
  /// shards report all-zero.
  std::vector<ShardStats> shard_stats() const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::vector<std::uint64_t> table;  ///< 0 = empty, else local_id + 1
    std::uint64_t entries = 0;
    std::uint64_t max_probe = 0;  ///< maintained under mutex, always on
    PackedStateStore arena;

    explicit Shard(std::size_t record_words, std::size_t capacity)
        : table(capacity, 0), arena(record_words) {}
  };

  std::uint64_t shard_of(std::uint64_t hash) const noexcept {
    return shard_bits_ == 0 ? 0 : hash >> (64 - shard_bits_);
  }
  /// The shard at `index`, materializing it on first touch.
  Shard& shard_at(std::uint64_t index);
  /// The shard at `index`, or nullptr if never touched.
  const Shard* shard_if(std::uint64_t index) const {
    return slots_[index].load(std::memory_order_acquire);
  }
  void grow(Shard& shard) const;

  const PackedLayout* layout_;
  unsigned shard_bits_;
  std::uint64_t shard_mask_;
  std::uint64_t seed_;
  std::size_t initial_capacity_;
  // Raw Shard pointers behind atomics: Shard owns a mutex (immovable), and
  // a slot flips nullptr → pointer exactly once, published with acq_rel so
  // the winning toucher's construction happens-before every use.
  std::vector<std::atomic<Shard*>> slots_;
};

}  // namespace nonmask::store
