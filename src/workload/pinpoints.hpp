// PinPoints-style representative-interval selection.
//
// The paper uses PinPoints [Patil et al., MICRO'04] to pick representative
// simulation points of SPEC CPU2000 with weights ("every simulation point
// contains 10 million instructions and the maximum number of phases is set
// to 10 ... results are weighted by the weights generated by PinPoints").
// PinPoints is the Pin-based productisation of SimPoint: slice the dynamic
// trace into fixed-size intervals, describe each interval by its basic-block
// vector (BBV), cluster the BBVs with k-means, and simulate one interval per
// cluster, weighted by cluster population. This module implements exactly
// that methodology over our synthetic traces (at configurable interval
// sizes so full-figure sweeps run in seconds).
#pragma once

#include <cstdint>
#include <vector>

#include "workload/trace.hpp"

namespace vcsteer::workload {

struct SimPoint {
  std::uint64_t start_uop = 0;  ///< trace position of the interval start.
  std::uint64_t length = 0;     ///< interval length in micro-ops.
  double weight = 0.0;          ///< fraction of the whole trace represented.
  std::uint32_t phase = 0;      ///< cluster id the interval represents.
};

/// Simulation sizing. Defaults keep a full 40-trace x 5-scheme figure sweep
/// in the tens of seconds; the methodology (intervals + k-means + weights)
/// is identical to the paper's 10M-uop PinPoints at larger sizes.
struct SimBudget {
  std::uint64_t total_uops = 600'000;    ///< trace prefix analysed by PinPoints.
  std::uint64_t interval_uops = 30'000;  ///< simulation-point size.
  std::uint32_t max_phases = 6;          ///< paper uses up to 10.

  static SimBudget smoke() { return {120'000, 20'000, 3}; }

  bool operator==(const SimBudget&) const = default;
};

/// Select weighted representative intervals of `budget.interval_uops` from
/// the first `budget.total_uops`, at most `budget.max_phases` of them.
/// Weights sum to 1. The trace source is reset before and left at an
/// unspecified position after.
std::vector<SimPoint> select_pinpoints(TraceSource& trace,
                                       std::size_t num_blocks,
                                       const SimBudget& budget,
                                       std::uint64_t seed);

/// Materialise one simpoint's entries for simulation (replays the trace
/// deterministically from the start).
std::vector<TraceEntry> collect_interval(TraceSource& trace,
                                         const SimPoint& point);

}  // namespace vcsteer::workload
