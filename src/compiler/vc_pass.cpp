#include "compiler/vc_pass.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "compiler/region.hpp"
#include "graph/algorithms.hpp"

namespace vcsteer::compiler {
namespace {

/// Weight of the VC-load term in the benefit function. Small: balance only
/// breaks near-ties, criticality dominates (the paper found copy reduction
/// matters more than balance, §5.3).
constexpr double kBalanceWeight = 0.55;

/// Per-region VC assignment: top-down greedy minimising estimated
/// completion time (paper Figure 2, step 2). Nodes are visited in path
/// order, which is a topological order of the region DDG.
void partition_region(prog::Program& program, const RegionDdg& ddg,
                      const VcOptions& opt,
                      std::vector<std::uint8_t>& vc_of) {
  const std::size_t n = ddg.uop_of.size();
  const std::uint32_t v_count = opt.num_vcs;

  // est[i]: estimated completion time of node i in its assigned VC.
  std::vector<double> est(n, 0.0);
  std::vector<double> vc_load(v_count, 0.0);   // accumulated expected work
  std::vector<double> vc_front(v_count, 0.0);  // contention: next free slot

  for (std::size_t i = 0; i < n; ++i) {
    const double lat = ddg.latency[i];
    // Work is weighted by the reach probability of the node's block: the
    // compiler's best estimate of how much of this region really executes.
    const double work = lat * ddg.exec_weight[i];
    double best_benefit = std::numeric_limits<double>::max();
    std::uint32_t best_vc = 0;
    double best_completion = 0.0;
    for (std::uint32_t v = 0; v < v_count; ++v) {
      // Operands: a value produced in another VC pays the communication
      // estimate on top of the producer's completion time.
      double ready = 0.0;
      for (const graph::HalfEdge& e : ddg.graph.preds(i)) {
        const double comm = opt.comm_cost_matrix[vc_of[e.to] * v_count + v];
        ready = std::max(ready, est[e.to] + comm);
      }
      // Contention: the VC issues opt.issue_width work per cycle; vc_front
      // approximates when the next slot is free.
      const double start = std::max(ready, vc_front[v]);
      const double completion = start + lat;
      const double benefit = completion + kBalanceWeight * vc_load[v];
      if (benefit < best_benefit) {
        best_benefit = benefit;
        best_vc = v;
        best_completion = completion;
      }
    }
    vc_of[i] = static_cast<std::uint8_t>(best_vc);
    est[i] = best_completion;
    vc_load[best_vc] += work;
    vc_front[best_vc] += work / opt.issue_width;
  }

  for (std::size_t i = 0; i < n; ++i) {
    program.mutable_uop(ddg.uop_of[i]).hint.vc_id = vc_of[i];
  }
}

/// Chain identification (paper Figure 2 step 3 / Figure 3): chains are the
/// weakly connected components of each VC's induced subgraph; the first
/// member in program order is the chain leader.
void mark_chains(prog::Program& program, const RegionDdg& ddg,
                 const VcOptions& opt,
                 const std::vector<std::uint8_t>& vc_of, VcPassStats& stats) {
  const std::size_t n = ddg.uop_of.size();
  std::vector<bool> mask(n);
  std::vector<std::uint32_t> chain_size;
  for (std::uint32_t v = 0; v < opt.num_vcs; ++v) {
    for (std::size_t i = 0; i < n; ++i) mask[i] = vc_of[i] == v;
    const graph::Components comps =
        graph::weak_components_masked(ddg.graph, mask);
    if (comps.num_components == 0) continue;
    chain_size.assign(comps.num_components, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (mask[i]) ++chain_size[comps.component_of[i]];
    }
    std::vector<bool> seen(comps.num_components, false);
    for (std::size_t i = 0; i < n; ++i) {
      if (!mask[i]) continue;
      const std::uint32_t comp = comps.component_of[i];
      if (!seen[comp]) {
        seen[comp] = true;
        if (chain_size[comp] >= opt.min_leader_chain) {
          program.mutable_uop(ddg.uop_of[i]).hint.chain_leader = true;
          ++stats.leaders;
        }
      }
    }
    stats.chains += comps.num_components;
    for (const std::uint32_t size : chain_size) {
      if (size == 1) ++stats.singleton_chains;
    }
  }
}

}  // namespace

VcPassStats assign_virtual_clusters(prog::Program& program,
                                    const VcOptions& options) {
  VCSTEER_CHECK(options.num_vcs >= 1 &&
                options.num_vcs < isa::SteerHint::kNoVc);
  VCSTEER_CHECK_MSG(options.comm_cost_matrix.size() ==
                        static_cast<std::size_t>(options.num_vcs) *
                            options.num_vcs,
                    "comm_cost_matrix must be num_vcs x num_vcs");
  VCSTEER_CHECK(options.issue_width > 0.0);
  VcPassStats stats;
  std::vector<std::uint8_t> vc_of;
  for (const Region& region : form_regions(program)) {
    const RegionDdg ddg = build_region_ddg(program, region);
    vc_of.assign(ddg.uop_of.size(), 0);
    partition_region(program, ddg, options, vc_of);
    mark_chains(program, ddg, options, vc_of, stats);
    stats.instructions += ddg.uop_of.size();
  }
  if (stats.chains > 0) {
    stats.avg_chain_length = static_cast<double>(stats.instructions) /
                             static_cast<double>(stats.chains);
  }
  return stats;
}

}  // namespace vcsteer::compiler
