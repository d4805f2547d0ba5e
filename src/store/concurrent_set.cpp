#include "store/concurrent_set.hpp"

#include "obs/metrics.hpp"

namespace nonmask::store {

namespace {

std::size_t round_up_pow2(std::uint64_t n) {
  std::size_t cap = 64;
  while (cap < n) cap <<= 1;
  return cap;
}

/// The set's live counters, bound on first use while metrics are on.
struct SetCounters {
  obs::Counter& probes = obs::Registry::instance().counter("store.set.probes");
  obs::Counter& grows = obs::Registry::instance().counter("store.set.grows");
  obs::Counter& cas_retries =
      obs::Registry::instance().counter("store.set.cas_retries");
};

SetCounters& set_counters() {
  static SetCounters counters;
  return counters;
}

}  // namespace

ConcurrentPackedSet::ConcurrentPackedSet(const PackedLayout& layout,
                                         unsigned shard_bits,
                                         std::uint64_t seed,
                                         std::uint64_t expected)
    : layout_(&layout),
      shard_bits_(shard_bits),
      shard_mask_((std::uint64_t{1} << shard_bits) - 1),
      seed_(seed),
      slots_(std::size_t{1} << shard_bits) {
  const std::size_t count = std::size_t{1} << shard_bits;
  // Size each table so the expected load sits under the 0.7 growth
  // threshold from materialization.
  initial_capacity_ =
      round_up_pow2(expected == 0 ? 64 : (expected / count) * 2 + 64);
  for (auto& slot : slots_) slot.store(nullptr, std::memory_order_relaxed);
}

ConcurrentPackedSet::~ConcurrentPackedSet() {
  for (auto& slot : slots_) delete slot.load(std::memory_order_acquire);
}

ConcurrentPackedSet::Shard& ConcurrentPackedSet::shard_at(
    std::uint64_t index) {
  Shard* existing = slots_[index].load(std::memory_order_acquire);
  if (existing != nullptr) return *existing;
  // First touch: this thread allocates the table and arena, so their pages
  // fault in on its NUMA node. On a lost race the winner's shard is kept
  // (its pages are already placed) and our candidate is freed.
  auto fresh = std::make_unique<Shard>(layout_->words(), initial_capacity_);
  Shard* expected = nullptr;
  if (slots_[index].compare_exchange_strong(expected, fresh.get(),
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
    return *fresh.release();
  }
  if (obs::Metrics::enabled()) set_counters().cas_retries.add(1);
  return *expected;
}

void ConcurrentPackedSet::touch(unsigned index) { shard_at(index); }

void ConcurrentPackedSet::grow(Shard& shard) const {
  std::vector<std::uint64_t> table(shard.table.size() * 2, 0);
  const std::uint64_t mask = table.size() - 1;
  for (std::uint64_t slot : shard.table) {
    if (slot == 0) continue;
    std::uint64_t pos = layout_->hash(shard.arena.get(slot - 1), seed_) & mask;
    while (table[pos] != 0) pos = (pos + 1) & mask;
    table[pos] = slot;
  }
  shard.table = std::move(table);
}

std::pair<std::uint64_t, bool> ConcurrentPackedSet::insert(
    const std::uint64_t* words) {
  const std::uint64_t h = layout_->hash(words, seed_);
  const std::uint64_t shard_idx = shard_of(h);
  Shard& shard = shard_at(shard_idx);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if ((shard.entries + 1) * 10 > shard.table.size() * 7) {
    grow(shard);
    if (obs::Metrics::enabled()) set_counters().grows.add(1);
  }
  const std::uint64_t mask = shard.table.size() - 1;
  std::uint64_t pos = h & mask;
  // Probe depth is tracked per shard unconditionally (a register increment
  // and one compare under a mutex already held); the registry counter is
  // the gated one.
  std::uint64_t probes = 1;
  while (true) {
    const std::uint64_t slot = shard.table[pos];
    if (slot == 0) {
      const std::uint64_t local = shard.arena.intern(words);
      shard.table[pos] = local + 1;
      ++shard.entries;
      if (probes > shard.max_probe) shard.max_probe = probes;
      if (obs::Metrics::enabled()) set_counters().probes.add(probes);
      return {(local << shard_bits_) | shard_idx, true};
    }
    if (equal(*layout_, shard.arena.get(slot - 1), words)) {
      if (probes > shard.max_probe) shard.max_probe = probes;
      if (obs::Metrics::enabled()) set_counters().probes.add(probes);
      return {((slot - 1) << shard_bits_) | shard_idx, false};
    }
    pos = (pos + 1) & mask;
    ++probes;
  }
}

std::optional<std::uint64_t> ConcurrentPackedSet::find(
    const std::uint64_t* words) const {
  const std::uint64_t h = layout_->hash(words, seed_);
  const std::uint64_t shard_idx = shard_of(h);
  const Shard* shard_ptr = shard_if(shard_idx);
  if (shard_ptr == nullptr) return std::nullopt;  // never touched: empty
  const Shard& shard = *shard_ptr;
  std::lock_guard<std::mutex> lock(shard.mutex);
  const std::uint64_t mask = shard.table.size() - 1;
  std::uint64_t pos = h & mask;
  while (true) {
    const std::uint64_t slot = shard.table[pos];
    if (slot == 0) return std::nullopt;
    if (equal(*layout_, shard.arena.get(slot - 1), words)) {
      return ((slot - 1) << shard_bits_) | shard_idx;
    }
    pos = (pos + 1) & mask;
  }
}

std::uint64_t ConcurrentPackedSet::size() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Shard* shard = shard_if(i);
    if (shard == nullptr) continue;
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->entries;
  }
  return total;
}

std::vector<ConcurrentPackedSet::ShardStats> ConcurrentPackedSet::shard_stats()
    const {
  std::vector<ShardStats> stats;
  stats.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Shard* shard = shard_if(i);
    if (shard == nullptr) {
      stats.push_back({});
      continue;
    }
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.push_back({shard->entries, shard->table.size(), shard->max_probe,
                     shard->arena.bytes()});
  }
  return stats;
}

}  // namespace nonmask::store
