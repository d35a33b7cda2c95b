// Graph algorithms shared by the software-side steering passes:
// topological order, depth/height (longest paths) over node latencies,
// criticality and slack (paper §4.2 and the RHOP weight model), and weakly
// connected components (chain identification, paper Figure 3).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"

namespace vcsteer::graph {

/// Topological order of a DAG. CHECK-fails on cycles (region DDGs are acyclic
/// by construction; feeding a cyclic graph is a programming error).
std::vector<NodeId> topological_order(const Digraph& g);

/// Longest-path analysis over a DAG with per-node latencies.
///
/// depth(v)  = longest latency path from any root *ending at v's issue*
///             (i.e. excluding v's own latency) — earliest cycle v can start.
/// height(v) = longest latency path from v to any leaf *including v's own
///             latency* — how much work remains once v issues.
/// criticality(v) = depth(v) + height(v); nodes with maximal criticality lie
/// on a critical path (paper §4.2, following SPDI [19]).
struct CriticalPathInfo {
  std::vector<double> depth;
  std::vector<double> height;
  double critical_length = 0.0;

  double criticality(NodeId v) const { return depth[v] + height[v]; }
  /// Slack: extra delay v tolerates without lengthening the critical path.
  double slack(NodeId v) const { return critical_length - criticality(v); }
  /// True when v lies on a critical path (zero slack, up to rounding).
  bool is_critical(NodeId v) const { return slack(v) < 1e-9; }
};

CriticalPathInfo critical_paths(const Digraph& g,
                                const std::vector<double>& node_latency);

/// Weakly connected components. Returns component id per node (dense ids,
/// numbered in order of first appearance by node index) and the count.
struct Components {
  std::vector<std::uint32_t> component_of;
  std::uint32_t num_components = 0;
};

Components weak_components(const Digraph& g);

/// Weakly connected components of the subgraph induced by the nodes where
/// `mask[v]` is true; nodes outside the mask get component id kNoComponent.
constexpr std::uint32_t kNoComponent = ~0u;
Components weak_components_masked(const Digraph& g,
                                  const std::vector<bool>& mask);

}  // namespace vcsteer::graph
