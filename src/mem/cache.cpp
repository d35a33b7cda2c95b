#include "mem/cache.hpp"

#include <bit>

#include "common/check.hpp"

namespace vcsteer::mem {

Cache::Cache(const CacheConfig& config)
    : config_(config), num_sets_(config.num_sets()) {
  VCSTEER_CHECK_MSG(std::has_single_bit(num_sets_),
                    "cache set count must be a power of two");
  VCSTEER_CHECK_MSG(std::has_single_bit(config_.line_bytes),
                    "cache line size must be a power of two");
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(config_.line_bytes));
  set_shift_ = static_cast<std::uint32_t>(std::countr_zero(num_sets_));
  ways_.assign(std::size_t{num_sets_} * config_.associativity, Way{});
}

bool Cache::contains(std::uint32_t addr) const {
  const std::uint32_t tag = tag_of(addr);
  const Way* base = &ways_[std::size_t{set_of(addr)} * config_.associativity];
  for (std::uint32_t w = 0; w < config_.associativity; ++w) {
    if (base[w].tag == tag && base[w].lru != 0) return true;
  }
  return false;
}

void Cache::reset() {
  for (Way& w : ways_) w = Way{};
  tick_ = hits_ = misses_ = 0;
}

}  // namespace vcsteer::mem
