#include "store/arena.hpp"

#include "obs/metrics.hpp"

namespace nonmask::store {

PackedStateStore::PackedStateStore(std::size_t record_words,
                                   std::size_t slab_records)
    : record_words_(record_words == 0 ? 1 : record_words),
      slab_records_(slab_records == 0 ? 1 : slab_records) {}

std::uint64_t PackedStateStore::intern(const std::uint64_t* words) {
  const std::uint64_t id = size_;
  const std::size_t slab = static_cast<std::size_t>(id / slab_records_);
  if (slab == slabs_.size()) {
    const std::size_t slab_words = slab_records_ * record_words_;
    slabs_.emplace_back(static_cast<std::uint64_t*>(
        ::operator new[](slab_words * sizeof(std::uint64_t),
                         std::align_val_t{64})));
    if (obs::Metrics::enabled()) {  // bound on the first use while on
      static obs::Counter& allocs =
          obs::Registry::instance().counter("store.arena.slab_allocs");
      static obs::Counter& bytes =
          obs::Registry::instance().counter("store.arena.slab_bytes");
      allocs.add(1);
      bytes.add(slab_words * sizeof(std::uint64_t));
    }
  }
  std::uint64_t* out = slabs_[slab].get() +
                       (id % slab_records_) * record_words_;
  for (std::size_t w = 0; w < record_words_; ++w) out[w] = words[w];
  ++size_;
  return id;
}

}  // namespace nonmask::store
