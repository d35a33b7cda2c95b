// SoA value table: the dynamic-value tracking state of the simulator, split
// into structure-of-arrays form.
//
// PR 5's event-driven kernel kept values as an array-of-structs (an ~80-byte
// Value with an embedded per-cluster avail_cycle row), which made the hot
// operations — alloc/free churn at dispatch/commit rate and
// availability-mask probes from steer and wakeup registration — walk
// strided memory and clear 80 bytes per allocation. Here each
// field lives in its own densely-packed array indexed by tag: one byte per
// value for home/avail_mask/copy_mask/fp, one u32 for the waiter-chain head,
// and a [tag][cluster] u64 plane for avail cycles. The hot probes touch only
// the byte planes, and alloc clears 8 bytes instead of 80: the avail_cycle
// row is deliberately left dirty, since every read of avail_cycle(t, c) is
// guarded by the avail_mask bit for c, which alloc clears and only
// mark_avail sets — after writing the cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "sim/stats.hpp"

namespace vcsteer::sim {

using Tag = std::uint32_t;
constexpr Tag kNoTag = ~0u;
/// Null link in the slot-pool ready lists and the value waiter chains.
constexpr std::uint32_t kNilIdx = ~0u;

inline std::uint8_t cluster_bit(std::uint32_t cluster) {
  return static_cast<std::uint8_t>(1u << cluster);
}

class ValueTable {
 public:
  /// Back to empty, keeping every plane's storage (arena reuse).
  void reset() {
    count_ = 0;
    free_.clear();
  }

  /// Tags ever allocated this run (free-listed tags included).
  std::uint32_t size() const { return count_; }

  Tag alloc(std::uint8_t home, bool fp) {
    Tag tag;
    if (!free_.empty()) {
      tag = free_.back();
      free_.pop_back();
    } else {
      tag = count_++;
      if (count_ > cap_) grow();
    }
    home_[tag] = home;
    fp_[tag] = fp ? 1 : 0;
    avail_mask_[tag] = 0;
    copy_mask_[tag] = 0;
    waiters_[tag] = kNilIdx;
    return tag;
  }

  /// Returns `tag` to the free list. Register-file accounting stays with the
  /// caller (CoreState::release_value), which reads the masks first.
  void free_tag(Tag tag) {
    VCSTEER_DCHECK(tag < count_);
    free_.push_back(tag);
  }

  std::uint8_t home(Tag tag) const { return home_[tag]; }
  bool fp(Tag tag) const { return fp_[tag] != 0; }
  std::uint8_t avail_mask(Tag tag) const { return avail_mask_[tag]; }
  /// Clusters holding `tag` or receiving a copy of it: the home and every
  /// copy target. A value is only published where it is held, so
  /// avail_mask is a subset.
  std::uint8_t holders(Tag tag) const {
    return static_cast<std::uint8_t>(cluster_bit(home_[tag]) | copy_mask_[tag]);
  }

  void add_copy(Tag tag, std::uint32_t cluster) {
    copy_mask_[tag] |= cluster_bit(cluster);
  }

  /// Head of the waiter chain (CoreState::waiter_nodes) for `tag`; writable
  /// so publish can unlink as it wakes.
  std::uint32_t& waiters(Tag tag) { return waiters_[tag]; }
  std::uint32_t waiters(Tag tag) const { return waiters_[tag]; }

  /// Cycle `tag` became available in `cluster`. Only meaningful when the
  /// avail_mask bit for `cluster` is set — the row is not cleared on alloc.
  std::uint64_t avail_cycle(Tag tag, std::uint32_t cluster) const {
    VCSTEER_DCHECK((avail_mask_[tag] & cluster_bit(cluster)) != 0);
    return avail_cycle_[tag * kMaxClusters + cluster];
  }

  /// Make `tag` available in `cluster` as of `cycle`. Writes the cycle
  /// before setting the mask bit that guards its reads.
  void mark_avail(Tag tag, std::uint32_t cluster, std::uint64_t cycle) {
    avail_cycle_[tag * kMaxClusters + cluster] = cycle;
    avail_mask_[tag] |= cluster_bit(cluster);
  }

 private:
  void grow() {
    cap_ = cap_ == 0 ? 256 : cap_ * 2;
    home_.resize(cap_);
    avail_mask_.resize(cap_);
    copy_mask_.resize(cap_);
    fp_.resize(cap_);
    waiters_.resize(cap_);
    avail_cycle_.resize(static_cast<std::size_t>(cap_) * kMaxClusters);
  }

  std::uint32_t count_ = 0;
  std::uint32_t cap_ = 0;
  std::vector<std::uint8_t> home_;
  std::vector<std::uint8_t> avail_mask_;
  std::vector<std::uint8_t> copy_mask_;
  std::vector<std::uint8_t> fp_;
  std::vector<std::uint32_t> waiters_;
  std::vector<std::uint64_t> avail_cycle_;  ///< [tag * kMaxClusters + c]
  std::vector<Tag> free_;
};

}  // namespace vcsteer::sim
