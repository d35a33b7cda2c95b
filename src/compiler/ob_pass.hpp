// OB: static-placement dynamic-issue (SPDI) operation-based steering
// [Nagarajan et al., PACT'04], the paper's first software-only baseline.
//
// SPDI's scheduler walks the region in program order and statically places
// each operation on the ALU/cluster that minimises its estimated issue time
// given the (static) placement of its operands — the hardware then issues
// dynamically but never revisits the placement. We implement that greedy
// placement against the target machine's physical clusters and record the
// result in SteerHint::static_cluster; the hardware side is the trivial
// StaticFollowerPolicy. Unlike the VC pass there is no runtime remapping,
// so any compile-time misestimation of balance is locked in — which is the
// deficiency the paper's hybrid scheme targets (§3.2).
#pragma once

#include <cstdint>
#include <vector>

#include "program/program.hpp"

namespace vcsteer::compiler {

struct ObOptions {
  std::uint32_t num_clusters = 2;
  double comm_cost = 2.0;     ///< estimated inter-cluster copy cost, cycles.
  /// Optional per-pair cost (row-major num_clusters^2): entry [p * n + c]
  /// estimates consuming in cluster c a value placed in cluster p, derived
  /// from the target fabric (see harness::comm_cost_matrix). Empty falls
  /// back to the scalar comm_cost — the flat estimate, bit-identical.
  std::vector<double> comm_cost_matrix;

  bool operator==(const ObOptions&) const = default;
};

struct ObPassStats {
  std::uint64_t instructions = 0;
  std::uint64_t est_cross_cluster_edges = 0;  ///< statically predicted copies.
};

/// Annotates SteerHint::static_cluster on every micro-op.
ObPassStats assign_ob(prog::Program& program, const ObOptions& options);

}  // namespace vcsteer::compiler
