// Inter-cluster copy interconnect.
//
// The copy network's selection logic (sim/copy_network.hpp) picks which
// copies leave each cluster's copy queue; the Interconnect decides *when
// they arrive*: per-link bandwidth arbitration plus hop-count latency.
// A copy from `from` to `to` crosses topology_distance() hops, paying
// link_latency per hop; a topology (common/config.hpp Topology) only picks
// which link each hop claims:
//   * kIdeal    — none: the contention-free point-to-point link of the
//                 paper's Table 2 model, arrival = select + link_latency
//                 (+1 regfile write, charged by the copy network, not here).
//   * kBus      — link 0, one shared medium: every copy in the machine
//                 arbitrates for the same copies_per_link_cycle slots.
//   * kCrossbar — link from * n + to, dedicated to the ordered pair. With an
//                 unlimited link (~0u) it is bit-identical to kIdeal.
//   * kRing     — link (from + h) % n on hop h of a unidirectional ring: a
//                 copy from c traverses links c->c+1->... one at a time.
//
// A copy that loses arbitration is buffered inside the network (its copy
// queue slot and issue-width slot were already consumed at select time);
// the loss shows up as a later arrival and in the contention counters.
// route_copy() request cycles are nondecreasing — the simulator calls it
// from its single cycle loop — which lets links prune their occupancy maps
// as time advances, keeping arbitration O(in-flight copies).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/config.hpp"

namespace vcsteer::sim {

struct InterconnectStats {
  std::uint64_t copies_routed = 0;
  std::uint64_t copy_hops = 0;              ///< links traversed in total.
  std::uint64_t link_busy_cycles = 0;       ///< link-cycle slots claimed.
  std::uint64_t link_contention_cycles = 0; ///< waits for a busy link slot.
};

/// One link's occupancy calendar: claims the earliest cycle with spare
/// bandwidth at or after a requested cycle.
class LinkState {
 public:
  void reset() {
    used_.clear();
    wait_ewma_ = 0.0;
  }

  /// First cycle >= `earliest` with fewer than `bandwidth` claims; records
  /// the claim. Entries before `prune_before` (no future request can claim
  /// them) are dropped.
  std::uint64_t claim(std::uint64_t earliest, std::uint64_t prune_before,
                      std::uint32_t bandwidth);

  /// Exponentially weighted moving average of the per-claim wait (cycles a
  /// copy sat in the network because this link was busy), updated on every
  /// claim with weight 1/8. This is the cheap recent-congestion signal a
  /// hardware arbiter could expose to the steering unit: ~0 on an idle
  /// link, rising towards the steady-state queueing delay under overload.
  double wait_ewma() const { return wait_ewma_; }

 private:
  std::map<std::uint64_t, std::uint32_t> used_;  ///< cycle -> claims.
  double wait_ewma_ = 0.0;
};

class Interconnect {
 public:
  explicit Interconnect(const MachineConfig& config);

  /// Routes one register copy from cluster `from` to `to` (from != to),
  /// selected in `cycle` (nondecreasing across calls). Returns the cycle the
  /// value has fully crossed the network; the caller charges the regfile
  /// write on top.
  std::uint64_t route_copy(std::uint32_t from, std::uint32_t to,
                           std::uint64_t cycle);

  /// Links a copy from `from` to `to` traverses (0 when equal). This is the
  /// static topology distance steering policies may consult through
  /// SteerView::copy_distance — independent of current load.
  std::uint32_t distance(std::uint32_t from, std::uint32_t to) const {
    return topology_distance(kind_, n_, from, to);
  }

  /// Recent congestion on the from -> to path: the sum of the wait EWMAs of
  /// every link the copy would claim, in cycles of expected extra delay.
  /// 0 on a contention-free fabric (and always 0 for kIdeal). Steering
  /// policies read it through SteerView::link_congestion to dodge hot links
  /// before queueing behind them.
  double congestion(std::uint32_t from, std::uint32_t to) const;

  void reset();
  const InterconnectStats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNoLink = ~0u;

  /// The link hop `hop` of a from -> to copy claims; kNoLink on kIdeal.
  std::uint32_t link(std::uint32_t from, std::uint32_t to,
                     std::uint32_t hop) const;

  Topology kind_;
  std::uint32_t n_;
  std::uint32_t latency_;
  std::uint32_t bandwidth_;
  std::vector<LinkState> links_;
  InterconnectStats stats_;
};

}  // namespace vcsteer::sim
