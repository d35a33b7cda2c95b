#include "compiler/rhop_pass.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "compiler/region.hpp"
#include "graph/partition.hpp"

namespace vcsteer::compiler {
namespace {

/// Extra edge weight for fully critical edges (slack 0), decaying linearly
/// to zero at slack >= critical length.
constexpr double kCriticalEdgeBonus = 4.0;
/// Balance tolerance of the refinement stage. RHOP refines aggressively
/// towards balanced estimated workload (its balance is better than VC's in
/// Fig. 6(b.2)).
constexpr double kImbalanceTolerance = 0.05;
/// Seed of the partitioner's refinement order.
constexpr std::uint64_t kSeed = 0x5eed;

}  // namespace

RhopPassStats assign_rhop(prog::Program& program, const RhopOptions& options) {
  VCSTEER_CHECK(options.num_clusters >= 1 && options.num_clusters <= 127);
  RhopPassStats stats;
  Rng rng(kSeed);

  for (const Region& region : form_regions(program)) {
    const RegionDdg ddg = build_region_ddg(program, region);
    const auto n = static_cast<graph::NodeId>(ddg.uop_of.size());

    // Slack-weighted communication graph: reuse the DDG topology but scale
    // each edge by how critical its endpoints are, so the coarsening stage
    // keeps critical chains together.
    graph::Digraph weighted(n);
    const double crit_len = std::max(1.0, ddg.crit.critical_length);
    for (graph::NodeId u = 0; u < n; ++u) {
      for (const graph::HalfEdge& e : ddg.graph.succs(u)) {
        const double slack =
            std::min(ddg.crit.slack(u), ddg.crit.slack(e.to));
        const double criticality = std::max(0.0, 1.0 - slack / crit_len);
        weighted.add_edge(u, e.to, 1.0 + kCriticalEdgeBonus * criticality);
      }
    }
    // Node weight = estimated resource usage: RHOP balances slot counts
    // (its VLIW heritage) scaled by the expected-path reach probability.
    // Both estimates degrade on an out-of-order machine — dynamic cost per
    // op ranges from one cycle to a memory miss, and the real path through
    // the region differs from the expected one — which is exactly the
    // workload-estimation weakness the paper pins on RHOP (§3.3).
    std::vector<double> node_weight(ddg.exec_weight);

    const graph::PartitionResult part = graph::multilevel_partition(
        weighted, node_weight,
        {.num_parts = options.num_clusters,
         .imbalance_tolerance = kImbalanceTolerance},
        rng);

    for (graph::NodeId i = 0; i < n; ++i) {
      program.mutable_uop(ddg.uop_of[i]).hint.static_cluster =
          static_cast<std::int8_t>(part.part_of[i]);
    }
    stats.instructions += n;
    stats.total_cut_weight += part.cut_weight;

    double total_w = 0.0;
    double max_w = 0.0;
    for (const double w : part.part_weight) {
      total_w += w;
      max_w = std::max(max_w, w);
    }
    if (total_w > 0.0) {
      const double avg = total_w / options.num_clusters;
      stats.worst_imbalance =
          std::max(stats.worst_imbalance, max_w / avg - 1.0);
    }
  }
  return stats;
}

}  // namespace vcsteer::compiler
