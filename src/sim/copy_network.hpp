// Copy network: the per-cluster copy issue queues plus the interconnect
// that carries inter-cluster register copies.
//
// A copy micro-op is created at dispatch (request_copy) in the *producer*
// cluster's copy queue whenever a consumer is steered away from one of its
// sources. Each cycle, every cluster selects its oldest ready copies
// (issue_width_copy of them) and injects them into the interconnect, which
// decides the arrival cycle from topology hop counts and per-link bandwidth
// (sim/interconnect.hpp). Arrived values are written into the target
// cluster's register file one cycle after crossing the network — values
// cross clusters through the regfile; there is no cross-link bypass.
//
// Templated on the run's Observer: on_copy_request fires at dispatch-side
// creation, on_copy_inject when the copy enters the interconnect (with hop
// count and arrival cycle). With NullObserver both hook sites compile away.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/check.hpp"
#include "sim/core_state.hpp"
#include "sim/interconnect.hpp"
#include "sim/observer.hpp"

namespace vcsteer::sim {

template <Observer Obs>
class CopyNetwork {
 public:
  CopyNetwork(CoreState& state, Obs& obs)
      : state_(state), obs_(obs), interconnect_(state.config) {}

  void reset() { interconnect_.reset(); }

  /// Ensures a replica of `tag` is (or will be) in `cluster`, creating a
  /// copy micro-op aged with the dispatching consumer's `seq`. Returns false
  /// when the producer's copy queue is full (dispatch must stall).
  bool request_copy(Tag tag, std::uint32_t cluster, std::uint64_t seq) {
    const std::uint8_t home = state_.values.home(tag);
    const bool fp = state_.values.fp(tag);
    VCSTEER_DCHECK((state_.values.holders(tag) & cluster_bit(cluster)) == 0);
    ClusterState& producer = state_.clusters[home];
    if (producer.copy_used >= state_.config.iq_copy_entries) return false;
    std::uint32_t& target_regs = fp ? state_.clusters[cluster].regs_used_fp
                                    : state_.clusters[cluster].regs_used_int;
    const std::uint32_t target_cap =
        fp ? state_.config.regfile_fp : state_.config.regfile_int;
    if (target_regs >= target_cap) return false;

    const std::uint32_t idx = producer.iq_copy.alloc();
    CopyEntry& e = producer.iq_copy[idx];
    e.src_tag = tag;
    e.to = static_cast<std::uint8_t>(cluster);
    e.seq = seq;  // age relative to the dispatching consumer
    e.tie = state_.copy_ties++;
    ++producer.copy_used;
    state_.values.add_copy(tag, cluster);
    ++target_regs;
    ++state_.stats.copies_generated;
    if constexpr (Obs::enabled) {
      obs_.on_copy_request(
          CopyRequestEvent{tag, home, cluster, seq, state_.cycle});
    }
    if ((state_.values.avail_mask(tag) & cluster_bit(home)) != 0) {
      // Source already sits in the producer's register file: selectable from
      // the cycle after dispatch (issue precedes dispatch within a cycle).
      e.ready_at =
          std::max(state_.values.avail_cycle(tag, home) + 1, state_.cycle + 1);
      producer.iq_copy.ready_insert(idx);
    } else {
      state_.add_waiter(tag, home, WaiterKind::kCopy, idx);
    }
    return true;
  }

  /// Copy-queue select for `cluster`: the oldest copies whose source value
  /// is present locally, taken from the queue's event-maintained ready
  /// list. A copy wakes up when its source completes and is *selected* the
  /// next cycle (CopyEntry::ready_at): unlike same-cluster consumers there
  /// is no bypass into the copy network, so a cross-cluster dependence
  /// costs wakeup + select + network transit on top of the producer
  /// latency.
  void issue(std::uint32_t cluster) {
    ClusterState& cl = state_.clusters[cluster];
    // Oldest-first walk of the copy ready list. An entry published in this
    // very cycle carries ready_at == cycle + 1 (wakeup then select) and is
    // skipped in place; it is visited at most once more, next cycle.
    std::uint32_t issued = 0;
    std::uint32_t idx = cl.iq_copy.ready_head();
    while (idx != kNilIdx && issued < state_.config.issue_width_copy) {
      CopyEntry& e = cl.iq_copy[idx];
      const std::uint32_t next = e.ready_next;
      if (e.ready_at > state_.cycle) {
        idx = next;
        continue;
      }
      // Arrival = network transit (topology + contention) + one cycle to
      // write the value into the target cluster's register file.
      const std::uint64_t crossed =
          interconnect_.route_copy(cluster, e.to, state_.cycle);
      if constexpr (Obs::enabled) {
        obs_.on_copy_inject(CopyInjectEvent{
            e.src_tag, cluster, e.to, interconnect_.distance(cluster, e.to),
            state_.cycle, crossed + 1});
      }
      state_.completions.push(Completion{crossed + 1, kCopySeq, e.src_tag,
                                         e.to,
                                         /*is_copy_arrival=*/true},
                              state_.cycle);
      cl.iq_copy.ready_remove(idx);
      cl.iq_copy.release(idx);
      --cl.copy_used;
      ++issued;
      idx = next;
    }
  }

  const Interconnect& interconnect() const { return interconnect_; }

  /// Folds the interconnect counters into the run's SimStats (end of run).
  void flush_stats() {
    const InterconnectStats& s = interconnect_.stats();
    state_.stats.copies_routed = s.copies_routed;
    state_.stats.copy_hops = s.copy_hops;
    state_.stats.link_busy_cycles = s.link_busy_cycles;
    state_.stats.link_contention_cycles = s.link_contention_cycles;
  }

 private:
  CoreState& state_;
  Obs& obs_;
  Interconnect interconnect_;
};

}  // namespace vcsteer::sim
