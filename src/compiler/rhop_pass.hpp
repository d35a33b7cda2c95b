// RHOP: region-based hierarchical operation partitioning [Chu, Fan, Mahlke,
// PLDI'03], the paper's second software-only baseline.
//
// RHOP casts cluster assignment as multilevel graph partitioning over the
// region DDG. Node and edge weights are derived from *slack* (computed from
// static latencies): operations and edges on or near the critical path get
// heavy weights, so the coarsening stage groups critical chains and the
// refinement stage balances estimated per-cluster workload while minimising
// the weighted cut (inter-cluster communication). Coarsening stops when the
// number of coarse nodes reaches the cluster count (the paper's description
// of RHOP, §3.3). The result is a static physical-cluster assignment in
// SteerHint::static_cluster, followed blindly by the hardware.
#pragma once

#include <cstdint>

#include "program/program.hpp"

namespace vcsteer::compiler {

/// The inputs that vary between targets; harness::pass_options chooses them.
struct RhopOptions {
  std::uint32_t num_clusters = 0;

  bool operator==(const RhopOptions&) const = default;
};

struct RhopPassStats {
  std::uint64_t instructions = 0;
  double total_cut_weight = 0.0;          ///< sum over blocks.
  double worst_imbalance = 0.0;           ///< max over blocks of max/avg - 1.
};

/// Annotates SteerHint::static_cluster on every micro-op.
RhopPassStats assign_rhop(prog::Program& program, const RhopOptions& options);

}  // namespace vcsteer::compiler
