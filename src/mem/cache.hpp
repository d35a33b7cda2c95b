// Set-associative cache with true-LRU replacement.
//
// Latency-only model: an access returns hit/miss and fills on miss; the
// hierarchy turns that into cycles. Geometry comes from CacheConfig
// (Table 2: 32KB/4-way L1D, 2MB/16-way unified L2, 64B lines).
//
// Addresses are 32 bits, like every trace address (workload/trace.hpp), so
// a way is 8 bytes: the address's full tag and an LRU stamp, with stamp 0
// marking an empty way. Table 2's L1D and L2 take 4 + 256 KiB.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/config.hpp"

namespace vcsteer::mem {

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Looks up `addr`; on miss the line is filled (evicting LRU). Returns
  /// true on hit. Defined inline below: it runs per simulated memory
  /// access, where the cross-TU call cost is measurable. Aborts rather
  /// than wrap the 32-bit stamp counter, which no run reaches: it restarts
  /// at every reset() and counts at most one warm stream plus one interval.
  bool access(std::uint32_t addr);

  /// Lookup without fill or LRU update (used by tests and warmup checks).
  bool contains(std::uint32_t addr) const;

  void reset();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  const CacheConfig& config() const { return config_; }

 private:
  // A 1-byte-line, 1-set cache keeps all 32 address bits as its tag, so no
  // tag value can mark an empty way; stamp 0 does, since every fill stamps
  // at least 1.
  struct Way {
    std::uint32_t tag = 0;
    std::uint32_t lru = 0;  ///< larger = more recently used; 0: empty.
  };
  static_assert(sizeof(Way) == 8, "a cache way is 8 bytes");

  // Geometry is power-of-two (checked at construction), so the per-access
  // line/set decomposition is two shifts, not two integer divisions. Line
  // and set bits together span at most 31 (size_bytes is 32-bit).
  std::uint32_t set_of(std::uint32_t addr) const {
    return (addr >> line_shift_) & (num_sets_ - 1);
  }
  std::uint32_t tag_of(std::uint32_t addr) const {
    return addr >> (line_shift_ + set_shift_);
  }

  CacheConfig config_;
  std::uint32_t num_sets_;
  std::uint32_t line_shift_ = 0;
  std::uint32_t set_shift_ = 0;
  std::vector<Way> ways_;  ///< num_sets * associativity, set-major.
  std::uint32_t tick_ = 0;  ///< stamp of the latest access.
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

inline bool Cache::access(std::uint32_t addr) {
  const std::uint32_t tag = tag_of(addr);
  Way* base = &ways_[std::size_t{set_of(addr)} * config_.associativity];
  ++tick_;
  VCSTEER_CHECK_MSG(tick_ != 0, "cache LRU stamp counter wrapped");
  // Valid stamps are distinct, so the victim is the least recently used
  // way, or the last empty one.
  Way* victim = base;
  for (std::uint32_t w = 0; w < config_.associativity; ++w) {
    Way& way = base[w];
    if (way.tag == tag && way.lru != 0) {
      way.lru = tick_;
      ++hits_;
      return true;
    }
    if (way.lru <= victim->lru) victim = &way;
  }
  ++misses_;
  victim->tag = tag;
  victim->lru = tick_;
  return false;
}

}  // namespace vcsteer::mem
