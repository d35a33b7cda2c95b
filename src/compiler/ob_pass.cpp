#include "compiler/ob_pass.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "compiler/region.hpp"

namespace vcsteer::compiler {

ObPassStats assign_ob(prog::Program& program, const ObOptions& options) {
  VCSTEER_CHECK(options.num_clusters >= 1 && options.num_clusters <= 127);
  VCSTEER_CHECK_MSG(options.comm_cost_matrix.empty() ||
                        options.comm_cost_matrix.size() ==
                            static_cast<std::size_t>(options.num_clusters) *
                                options.num_clusters,
                    "comm_cost_matrix must be num_clusters x num_clusters");
  ObPassStats stats;

  std::vector<std::uint8_t> cluster_of;
  std::vector<double> est;

  for (const Region& region : form_regions(program)) {
    const RegionDdg ddg = build_region_ddg(program, region);
    const std::size_t n = ddg.uop_of.size();
    cluster_of.assign(n, 0);
    est.assign(n, 0.0);

    // SPDI placement over the region: independent (root) operations are
    // distributed round-robin — the scheme's notion of static load
    // balancing — while dependent operations go to the cluster minimising
    // estimated issue time given the static placement of their operands.
    // There is no queue-contention model and no runtime feedback: whatever
    // imbalance the compile-time guess causes is locked in, which is the
    // deficiency the paper's hybrid scheme targets (§3.2).
    std::uint32_t round_robin = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double lat = ddg.latency[i];
      std::uint32_t best_c;
      double best_completion;
      if (ddg.graph.in_degree(i) == 0) {
        best_c = round_robin++ % options.num_clusters;
        best_completion = lat;
      } else {
        best_c = 0;
        best_completion = std::numeric_limits<double>::max();
        for (std::uint32_t c = 0; c < options.num_clusters; ++c) {
          double ready = 0.0;
          for (const graph::HalfEdge& e : ddg.graph.preds(i)) {
            // Per-pair topology estimate when provided, flat scalar else.
            const double comm =
                cluster_of[e.to] == c
                    ? 0.0
                    : (options.comm_cost_matrix.empty()
                           ? options.comm_cost
                           : options.comm_cost_matrix[cluster_of[e.to] *
                                                          options.num_clusters +
                                                      c]);
            ready = std::max(ready, est[e.to] + comm);
          }
          const double completion = ready + lat;
          if (completion < best_completion) {
            best_completion = completion;
            best_c = c;
          }
        }
      }
      cluster_of[i] = static_cast<std::uint8_t>(best_c);
      est[i] = best_completion;
      for (const graph::HalfEdge& e : ddg.graph.preds(i)) {
        if (cluster_of[e.to] != best_c) ++stats.est_cross_cluster_edges;
      }
      program.mutable_uop(ddg.uop_of[i]).hint.static_cluster =
          static_cast<std::int8_t>(best_c);
    }
    stats.instructions += n;
  }
  return stats;
}

}  // namespace vcsteer::compiler
