// Per-cluster back-end: age-ordered select over the cluster's INT and FP
// issue queues, fully pipelined functional units (divides block the
// cluster's single divider), load/store timing against the shared memory
// hierarchy, and store-to-load forwarding against the commit unit's store
// records. Select walks each queue's event-maintained ready list (see
// core_state.hpp) oldest-first, so its cost is O(issue width) rather than
// O(queue size) per slot.
//
// Templated on the run's Observer: on_issue fires per selected micro-op
// with its computed completion cycle; with NullObserver the hook compiles
// away.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/check.hpp"
#include "mem/hierarchy.hpp"
#include "sim/commit.hpp"
#include "sim/core_state.hpp"
#include "sim/observer.hpp"

namespace vcsteer::sim {

template <Observer Obs>
class ClusterBackend {
 public:
  ClusterBackend(CoreState& state, CommitUnit<Obs>& commit,
                 mem::MemoryHierarchy& memory, std::uint32_t cluster, Obs& obs)
      : state_(state),
        commit_(commit),
        memory_(memory),
        cluster_(cluster),
        obs_(obs) {}

  /// One cycle of compute-queue issue (INT then FP, issue_width each).
  void issue() { issue_some(/*int_ready=*/true, /*fp_ready=*/true); }

  /// issue() with per-queue ready hints from the ready-summary mask: a
  /// queue whose ready list is known empty is not visited at all. Visiting
  /// an empty queue is a no-op, so any hint combination is bit-identical —
  /// the hints only skip provably idle walks.
  void issue_some(bool int_ready, bool fp_ready) {
    ClusterState& cl = state_.clusters[cluster_];
    if (int_ready) {
      issue_queue(cl, cl.iq_int, state_.config.issue_width_int,
                  /*fp_queue=*/false);
    }
    if (fp_ready) {
      issue_queue(cl, cl.iq_fp, state_.config.issue_width_fp,
                  /*fp_queue=*/true);
    }
  }

 private:
  void issue_queue(ClusterState& cl, SlotPool<IqEntry>& pool,
                   std::uint32_t width, bool fp_queue) {
    // Walk the seq-ordered ready list: every entry on it has all sources
    // available in this cluster, so the walk visits candidates oldest-first —
    // exactly the repeated oldest-eligible scan, at O(width) instead of
    // O(width x queue size). Divider-blocked entries are skipped in place;
    // issuing a divide only *raises* div_busy_until, so nothing skipped can
    // become eligible again within the cycle.
    std::uint32_t issued = 0;
    std::uint32_t idx = pool.ready_head();
    while (idx != kNilIdx && issued < width) {
      IqEntry& e = pool[idx];
      const std::uint32_t next = e.ready_next;
      const isa::MicroOp& uop = state_.program.uop(e.uop);
      const bool is_div =
          uop.op == isa::OpClass::kIntDiv || uop.op == isa::OpClass::kFpDiv;
      // Unpipelined divider: one divide in flight per cluster.
      if (is_div && cl.div_busy_until > state_.cycle) {
        idx = next;
        continue;
      }

      std::uint64_t done = state_.cycle + isa::latency(uop.op);
      if (uop.is_load()) {
        // Store-to-load forwarding: newest older store to the same
        // 8-byte word with a known address supplies the value directly.
        // Records are seq-sorted (allocated in seq order, committed from
        // the front), so start the newest-first walk at the last record
        // older than the load instead of skipping younger ones one by one.
        auto& records = commit_.store_records();
        bool forwarded = false;
        auto it = std::lower_bound(
            records.begin(), records.end(), e.seq,
            [](const StoreRecord& r, std::uint64_t seq) { return r.seq < seq; });
        while (it != records.begin()) {
          --it;
          if (it->addr_known && (it->addr >> 3) == (e.addr >> 3)) {
            forwarded = true;
            break;
          }
        }
        done += forwarded ? 1 : memory_.load_latency(e.addr, state_.cycle + 1);
      } else if (uop.is_store()) {
        // The store's cache access happens off the critical path; charge
        // it to the hierarchy (ports, fills) without delaying completion.
        memory_.store_latency(e.addr, state_.cycle + 1);
        auto& records = commit_.store_records();
        auto it = std::lower_bound(
            records.begin(), records.end(), e.seq,
            [](const StoreRecord& r, std::uint64_t seq) { return r.seq < seq; });
        VCSTEER_DCHECK(it != records.end() && it->seq == e.seq);
        it->addr = e.addr;
        it->addr_known = true;
      }
      if (is_div) cl.div_busy_until = done;
      if constexpr (Obs::enabled) {
        obs_.on_issue(
            IssueEvent{e.uop, e.seq, cluster_, fp_queue, state_.cycle, done});
      }
      state_.completions.push(Completion{done, e.seq, e.dst_tag,
                                         static_cast<std::uint8_t>(cluster_),
                                         /*is_copy_arrival=*/false},
                              state_.cycle);
      pool.ready_remove(idx);
      pool.release(idx);
      --(fp_queue ? cl.fp_used : cl.int_used);
      ++issued;
      idx = next;
    }
  }

  CoreState& state_;
  CommitUnit<Obs>& commit_;
  mem::MemoryHierarchy& memory_;
  std::uint32_t cluster_;
  Obs& obs_;
};

}  // namespace vcsteer::sim
