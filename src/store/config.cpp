#include "store/config.hpp"

#include <cstdlib>

namespace nonmask::store {

const char* to_string(StoreBackend b) noexcept {
  switch (b) {
    case StoreBackend::kStore: return "store";
  }
  return "?";
}

StoreConfig StoreConfig::from_env() {
  StoreConfig config;
  if (const char* budget = std::getenv("NONMASK_STATE_BUDGET")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(budget, &end, 10);
    if (end != budget && parsed > 0) config.budget = parsed;
  }
  return config;
}

}  // namespace nonmask::store
