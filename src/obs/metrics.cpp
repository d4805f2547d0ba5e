#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>

#include "util/logging.hpp"

namespace nonmask::obs {

namespace {
std::atomic<bool> g_metrics_enabled{false};

unsigned bucket_of(std::uint64_t v) noexcept {
  // Bucket 0: v == 0; bucket b >= 1: 2^(b-1) <= v < 2^b.
  return v == 0 ? 0u : static_cast<unsigned>(64 - std::countl_zero(v));
}

void atomic_min(std::atomic<std::uint64_t>& slot, std::uint64_t v) noexcept {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (v < cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::uint64_t>& slot, std::uint64_t v) noexcept {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace

void Metrics::set_enabled(bool on) noexcept {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}
bool Metrics::enabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

double HistogramSnapshot::approx_percentile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count - 1);
  std::uint64_t seen = 0;
  for (unsigned b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (static_cast<double>(seen) > rank) {
      // Upper bound of bucket b, clamped into the observed range.
      const std::uint64_t bound = b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
      return static_cast<double>(std::clamp(bound, min, max));
    }
  }
  return static_cast<double>(max);
}

Histogram::~Histogram() {
  for (auto& slot : shards_) {
    delete slot.load(std::memory_order_acquire);
  }
}

Histogram::Shard& Histogram::shard_for_this_thread() noexcept {
  auto& slot = shards_[current_thread_tag() % kShardSlots];
  Shard* shard = slot.load(std::memory_order_acquire);
  if (shard == nullptr) {
    Shard* fresh = new Shard();
    if (slot.compare_exchange_strong(shard, fresh,
                                     std::memory_order_acq_rel)) {
      return *fresh;
    }
    delete fresh;  // another thread on this slot won the race
  }
  return *shard;
}

void Histogram::record(std::uint64_t value) noexcept {
  if (!Metrics::enabled()) return;
  Shard& shard = shard_for_this_thread();
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  atomic_min(shard.min, value);
  atomic_max(shard.max, value);
  shard.buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  // Published last: a snapshot that sees this record's count sees its
  // min and max too, so it never pairs count > 0 with an empty range.
  shard.count.fetch_add(1, std::memory_order_release);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.min = ~std::uint64_t{0};
  for (const auto& slot : shards_) {
    const Shard* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    // Acquire first: every record counted here has landed in the rest.
    const std::uint64_t count = shard->count.load(std::memory_order_acquire);
    if (count == 0) continue;
    snap.count += count;
    snap.sum += shard->sum.load(std::memory_order_relaxed);
    snap.min = std::min(snap.min, shard->min.load(std::memory_order_relaxed));
    snap.max = std::max(snap.max, shard->max.load(std::memory_order_relaxed));
    for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
      snap.buckets[b] += shard->buckets[b].load(std::memory_order_relaxed);
    }
  }
  if (snap.count == 0) snap.min = 0;
  return snap;
}

void Histogram::reset() noexcept {
  for (auto& slot : shards_) {
    Shard* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    shard->count.store(0, std::memory_order_relaxed);
    shard->sum.store(0, std::memory_order_relaxed);
    shard->min.store(~std::uint64_t{0}, std::memory_order_relaxed);
    shard->max.store(0, std::memory_order_relaxed);
    for (auto& b : shard->buckets) b.store(0, std::memory_order_relaxed);
  }
}

Registry& Registry::instance() {
  static Registry* registry = new Registry();  // never destroyed: references
  return *registry;                            // stay valid at exit
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<Counter>(std::string(name)))
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::make_unique<Gauge>(std::string(name)))
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::string(name)))
             .first;
  }
  return *it->second;
}

RegistrySnapshot Registry::snapshot() const {
  RegistrySnapshot snap;
  snap.counters = counter_values();
  std::lock_guard<std::mutex> lock(mutex_);
  if (Metrics::enabled()) {
    for (const auto& [name, g] : gauges_) {
      snap.gauges.emplace_back(name, g->value());
    }
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->snapshot());
  }
  return snap;
}

std::vector<CounterValue> Registry::counter_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CounterValue> values;
  values.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    values.emplace_back(name, c->value());
  }
  return values;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace nonmask::obs
