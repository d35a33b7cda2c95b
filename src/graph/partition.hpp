// Multilevel graph partitioning.
//
// RHOP [Chu, Fan, Mahlke, PLDI'03] formulates cluster assignment as graph
// partitioning solved by a multilevel scheme (coarsening + refinement),
// following Karypis/Kumar. This module implements the generic partitioner:
//  * coarsening by heavy-edge matching until the coarse graph has as many
//    nodes as requested parts (RHOP's stopping rule),
//  * an initial partition assigning coarse nodes to parts by weight,
//  * FM-style refinement at every uncoarsening level, moving boundary nodes
//    when doing so reduces the weighted edge cut without violating the
//    balance tolerance.
// The RHOP pass (src/compiler/rhop.*) supplies slack-derived node and edge
// weights on top of this.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "graph/digraph.hpp"

namespace vcsteer::graph {

struct PartitionOptions {
  std::uint32_t num_parts = 2;
  /// Maximum allowed part weight is (1 + tolerance) * total / num_parts.
  double imbalance_tolerance = 0.20;
};

struct PartitionResult {
  std::vector<std::uint32_t> part_of;   ///< part id per node.
  std::vector<double> part_weight;      ///< total node weight per part.
  double cut_weight = 0.0;              ///< sum of weights of cut edges.
};

/// Weighted edge cut of an assignment (each directed edge counted once).
double cut_weight(const Digraph& g, const std::vector<std::uint32_t>& part_of);

/// Partition `g` (interpreted as undirected, edge weights = communication
/// volume) into `options.num_parts` parts balancing `node_weight`.
/// Deterministic given the Rng seed.
PartitionResult multilevel_partition(const Digraph& g,
                                     const std::vector<double>& node_weight,
                                     const PartitionOptions& options,
                                     vcsteer::Rng& rng);

}  // namespace vcsteer::graph
