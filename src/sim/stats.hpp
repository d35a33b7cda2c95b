// Simulation statistics.
//
// Everything the paper's evaluation reads off a run: IPC (Figures 5/7 plot
// slowdowns derived from it), the number of copy micro-ops generated
// (Figure 6 a-series), and the issue-queue allocation stalls that define the
// paper's workload-balance metric ("workload balance improvement is computed
// as the total reduction of the allocation stalls in the issue queues",
// §5.3), plus a full stall breakdown and per-cluster distribution for
// diagnostics and ablations.
#pragma once

#include <array>
#include <cstdint>

#include "common/config.hpp"
#include "mem/hierarchy.hpp"

namespace vcsteer::sim {

/// Buckets of the per-cluster issue-queue occupancy histograms recorded by
/// the StatsObserver sink (equal slices of the combined INT+FP capacity;
/// the last bucket includes exactly-full). Lives here rather than in
/// observer.hpp so RunResult consumers need not pull in the observer layer.
constexpr std::uint32_t kOccupancyBuckets = 8;

struct SimStats {
  std::uint64_t cycles = 0;
  std::uint64_t committed_uops = 0;   ///< program micro-ops (copies excluded).
  std::uint64_t dispatched_uops = 0;
  std::uint64_t copies_generated = 0; ///< inter-cluster copy micro-ops.

  // Dispatch stall breakdown, in *micro-op slots* lost at the steer stage.
  std::uint64_t alloc_stalls = 0;     ///< target issue queue full (balance metric).
  std::uint64_t policy_stalls = 0;    ///< policy chose to stall (OP stall-over-steer).
  std::uint64_t rob_stalls = 0;
  std::uint64_t lsq_stalls = 0;
  std::uint64_t copyq_stalls = 0;     ///< copy queue in producer cluster full.
  std::uint64_t copy_bandwidth_stalls = 0;  ///< no decode slot left for copies.
  std::uint64_t regfile_stalls = 0;
  std::uint64_t frontend_empty = 0;   ///< no micro-op ready to dispatch.

  std::array<std::uint64_t, kMaxClusters> dispatched_to{};  ///< per cluster.
  std::array<std::uint64_t, kMaxClusters> occupancy_sum{};  ///< IQ entries * cycles.

  // Copy network / interconnect (see sim/interconnect.hpp). copies_routed
  // counts copies injected into the network; hops/busy/contention describe
  // its load: a contention-free run has link_contention_cycles == 0.
  std::uint64_t copies_routed = 0;
  std::uint64_t copy_hops = 0;                ///< total links traversed.
  std::uint64_t link_busy_cycles = 0;         ///< link-cycle slots claimed.
  std::uint64_t link_contention_cycles = 0;   ///< waits for a busy link slot.
  std::array<std::uint64_t, kMaxClusters> copyq_occupancy_sum{};  ///< entries * cycles.

  // Topology-aware steering diagnostics. remote_steers_by_hops[h] counts
  // copies requested at dispatch whose producer-to-consumer path is h
  // topology hops long (h >= 1; index capped at kMaxClusters - 1) — the
  // distance distribution the topology-aware policies try to compress
  // towards 1. avoided_contended_links counts dispatched decisions where
  // the topology-aware score diverged from the flat choice to dodge a
  // farther or more contended cluster (0 when steer.topology_aware is off).
  std::array<std::uint64_t, kMaxClusters> remote_steers_by_hops{};
  std::uint64_t avoided_contended_links = 0;

  mem::HierarchyStats memory{};

  double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(committed_uops) /
                             static_cast<double>(cycles);
  }
  /// Copies per 1000 committed micro-ops (machine-size independent measure).
  double copies_per_kuop() const {
    return committed_uops == 0 ? 0.0
                               : 1000.0 * static_cast<double>(copies_generated) /
                                     static_cast<double>(committed_uops);
  }
  /// Allocation stalls per 1000 committed micro-ops.
  double alloc_stalls_per_kuop() const {
    return committed_uops == 0 ? 0.0
                               : 1000.0 * static_cast<double>(alloc_stalls) /
                                     static_cast<double>(committed_uops);
  }
};

}  // namespace vcsteer::sim
