// Software side of the hybrid scheme (paper §4.2, Figure 2): partition each
// region's DDG into virtual clusters, then identify chains and chain
// leaders.
//
// The three steps of Figure 2:
//  1. Critical-path computation — depth + height per node (region.hpp).
//  2. Partition into virtual clusters — a top-down traversal assigning each
//     instruction to the VC with the best expected benefit, where benefit is
//     the estimated *completion time* of the instruction in that VC
//     (dependences + latencies + an estimated inter-VC communication cost +
//     resource contention in the intended VC), with a small load-balance
//     term so independent work spreads out.
//  3. Chain identification — a chain is a group of same-VC instructions that
//     the hardware must map to one physical cluster; we take the weakly
//     connected components of each VC's induced subgraph. The first chain
//     member in program order becomes the *chain leader* (Figure 3) and is
//     marked in the instruction encoding; every chain leader is a point
//     where the hardware may remap the VC.
#pragma once

#include <cstdint>
#include <vector>

#include "program/program.hpp"

namespace vcsteer::compiler {

/// The inputs that vary between targets; harness::pass_options chooses them.
struct VcOptions {
  std::uint32_t num_vcs = 0;
  /// Estimated cost in cycles (row-major num_vcs^2, 0 on the diagonal) of
  /// consuming a value produced in another VC (copy issue + link):
  /// entry [u * num_vcs + v] is for a value produced in VC u and consumed
  /// in VC v. A compile-time estimate of the runtime penalty, derived from
  /// the target fabric (see harness::comm_cost_matrix).
  std::vector<double> comm_cost_matrix;
  /// Per-VC issue bandwidth assumed by the contention model (matches the
  /// per-cluster issue width of the target machine).
  double issue_width = 0.0;
  /// Minimum chain size that gets a leader mark. Smaller chains (isolated
  /// micro-ops) follow their VC's current mapping instead of triggering a
  /// remap — leaders are meant to head real dependence chains (Figure 3),
  /// and remapping at every stray micro-op would turn the scheme into a
  /// pure hardware balancer.
  std::uint32_t min_leader_chain = 0;

  bool operator==(const VcOptions&) const = default;
};

struct VcPassStats {
  std::uint64_t instructions = 0;
  std::uint64_t chains = 0;
  std::uint64_t leaders = 0;
  std::uint64_t singleton_chains = 0;
  double avg_chain_length = 0.0;
};

/// Annotates every micro-op's SteerHint with vc_id + chain_leader.
/// Existing static_cluster hints are left untouched.
VcPassStats assign_virtual_clusters(prog::Program& program,
                                    const VcOptions& options);

}  // namespace vcsteer::compiler
