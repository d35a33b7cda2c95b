#include "graph/algorithms.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace vcsteer::graph {

std::vector<NodeId> topological_order(const Digraph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<std::uint32_t> in_deg(n);
  std::vector<NodeId> order;
  order.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    in_deg[v] = static_cast<std::uint32_t>(g.in_degree(v));
    if (in_deg[v] == 0) order.push_back(v);
  }
  // Kahn's algorithm; `order` doubles as the work queue.
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const HalfEdge& e : g.succs(order[head])) {
      if (--in_deg[e.to] == 0) order.push_back(e.to);
    }
  }
  VCSTEER_CHECK_MSG(order.size() == n, "topological_order: graph has a cycle");
  return order;
}

CriticalPathInfo critical_paths(const Digraph& g,
                                const std::vector<double>& node_latency) {
  const std::size_t n = g.num_nodes();
  VCSTEER_CHECK(node_latency.size() == n);
  CriticalPathInfo info;
  info.depth.assign(n, 0.0);
  info.height.assign(n, 0.0);
  if (n == 0) return info;

  const std::vector<NodeId> order = topological_order(g);

  // depth: forward pass. depth(v) = max over preds u of depth(u)+lat(u).
  for (NodeId v : order) {
    for (const HalfEdge& e : g.preds(v)) {
      info.depth[v] =
          std::max(info.depth[v], info.depth[e.to] + node_latency[e.to]);
    }
  }
  // height: backward pass. height(v) = lat(v) + max over succs of height.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    double succ_h = 0.0;
    for (const HalfEdge& e : g.succs(v)) {
      succ_h = std::max(succ_h, info.height[e.to]);
    }
    info.height[v] = node_latency[v] + succ_h;
  }
  for (NodeId v = 0; v < n; ++v) {
    info.critical_length =
        std::max(info.critical_length, info.criticality(v));
  }
  return info;
}

namespace {

Components components_impl(const Digraph& g, const std::vector<bool>* mask) {
  const std::size_t n = g.num_nodes();
  Components out;
  out.component_of.assign(n, kNoComponent);
  std::vector<NodeId> stack;
  auto in_mask = [&](NodeId v) { return mask == nullptr || (*mask)[v]; };

  for (NodeId root = 0; root < n; ++root) {
    if (!in_mask(root) || out.component_of[root] != kNoComponent) continue;
    const std::uint32_t id = out.num_components++;
    out.component_of[root] = id;
    stack.push_back(root);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      auto visit = [&](NodeId w) {
        if (in_mask(w) && out.component_of[w] == kNoComponent) {
          out.component_of[w] = id;
          stack.push_back(w);
        }
      };
      for (const HalfEdge& e : g.succs(v)) visit(e.to);
      for (const HalfEdge& e : g.preds(v)) visit(e.to);
    }
  }
  return out;
}

}  // namespace

Components weak_components(const Digraph& g) {
  return components_impl(g, nullptr);
}

Components weak_components_masked(const Digraph& g,
                                  const std::vector<bool>& mask) {
  VCSTEER_CHECK(mask.size() == g.num_nodes());
  return components_impl(g, &mask);
}

}  // namespace vcsteer::graph
