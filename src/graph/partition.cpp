#include "graph/partition.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.hpp"

namespace vcsteer::graph {
namespace {

/// Refinement passes per uncoarsening level.
constexpr std::uint32_t kRefinePasses = 4;
/// Balance tolerance of refinement: a move may not raise a part's weight
/// above (1 + kImbalanceTolerance) * total / num_parts. RHOP refines
/// aggressively towards balanced estimated workload (its balance is better
/// than VC's in Fig. 6(b.2)).
constexpr double kImbalanceTolerance = 0.05;

/// One coarsening level: a coarse graph plus the fine->coarse node map.
struct Level {
  Digraph graph;
  std::vector<double> node_weight;
  std::vector<NodeId> fine_to_coarse;  ///< indexed by fine node id.
};

/// Undirected adjacency view: for matching and refinement we need combined
/// in+out neighbours with accumulated weights.
std::vector<std::vector<HalfEdge>> undirected_adjacency(const Digraph& g) {
  std::vector<std::vector<HalfEdge>> adj(g.num_nodes());
  auto accumulate = [&](NodeId u, NodeId v, double w) {
    for (HalfEdge& e : adj[u]) {
      if (e.to == v) {
        e.weight += w;
        return;
      }
    }
    adj[u].push_back({v, w});
  };
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const HalfEdge& e : g.succs(u)) {
      if (e.to == u) continue;  // self-loops carry no cut weight
      accumulate(u, e.to, e.weight);
      accumulate(e.to, u, e.weight);
    }
  }
  return adj;
}

/// Heavy-edge matching: visit nodes in random order, match each unmatched
/// node with its heaviest unmatched neighbour. Returns the coarse level; the
/// coarse graph has one node per matched pair / unmatched singleton.
Level coarsen(const Digraph& g, const std::vector<double>& node_weight,
              vcsteer::Rng& rng) {
  const std::size_t n = g.num_nodes();
  const auto adj = undirected_adjacency(g);

  std::vector<NodeId> visit(n);
  std::iota(visit.begin(), visit.end(), 0u);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(visit[i - 1], visit[rng.below(i)]);
  }

  std::vector<NodeId> match(n, kInvalidNode);
  for (NodeId u : visit) {
    if (match[u] != kInvalidNode) continue;
    NodeId best = kInvalidNode;
    double best_w = -1.0;
    for (const HalfEdge& e : adj[u]) {
      if (match[e.to] != kInvalidNode) continue;
      if (e.weight > best_w) {
        best_w = e.weight;
        best = e.to;
      }
    }
    match[u] = (best == kInvalidNode) ? u : best;
    if (best != kInvalidNode) match[best] = u;
  }

  Level level;
  level.fine_to_coarse.assign(n, kInvalidNode);
  // Assign coarse ids: the smaller-index endpoint of each pair creates one.
  for (NodeId u = 0; u < n; ++u) {
    if (level.fine_to_coarse[u] != kInvalidNode) continue;
    const NodeId coarse = level.graph.add_node();
    level.fine_to_coarse[u] = coarse;
    if (match[u] != u) level.fine_to_coarse[match[u]] = coarse;
  }
  level.node_weight.assign(level.graph.num_nodes(), 0.0);
  for (NodeId u = 0; u < n; ++u) {
    level.node_weight[level.fine_to_coarse[u]] += node_weight[u];
  }
  for (NodeId u = 0; u < n; ++u) {
    for (const HalfEdge& e : g.succs(u)) {
      const NodeId cu = level.fine_to_coarse[u];
      const NodeId cv = level.fine_to_coarse[e.to];
      if (cu != cv) level.graph.add_or_accumulate_edge(cu, cv, e.weight);
    }
  }
  return level;
}

/// Assign coarse nodes to parts: heaviest-first onto the lightest part,
/// which yields a balanced initial partition (longest-processing-time rule).
std::vector<std::uint32_t> initial_partition(
    const std::vector<double>& node_weight, std::uint32_t num_parts) {
  const std::size_t n = node_weight.size();
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return node_weight[a] > node_weight[b];
  });
  std::vector<std::uint32_t> part_of(n, 0);
  std::vector<double> load(num_parts, 0.0);
  for (NodeId v : order) {
    const auto lightest = static_cast<std::uint32_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    part_of[v] = lightest;
    load[lightest] += node_weight[v];
  }
  return part_of;
}

/// FM-style refinement: repeatedly sweep nodes (random order), moving a node
/// to the part that maximises cut-weight gain subject to the balance cap.
void refine(const Digraph& g, const std::vector<double>& node_weight,
            std::vector<std::uint32_t>& part_of, std::uint32_t num_parts,
            vcsteer::Rng& rng) {
  const std::size_t n = g.num_nodes();
  const auto adj = undirected_adjacency(g);
  const double total =
      std::accumulate(node_weight.begin(), node_weight.end(), 0.0);
  const double cap = (1.0 + kImbalanceTolerance) * total / num_parts;

  std::vector<double> load(num_parts, 0.0);
  for (NodeId v = 0; v < n; ++v) load[part_of[v]] += node_weight[v];

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0u);

  std::vector<double> affinity(num_parts);

  // Rebalance step: while any part exceeds the cap, evict the node whose
  // move costs the least cut weight to the lightest part. Gain-driven
  // sweeps alone cannot fix an over-capacity part (they never accept
  // cut-increasing moves), so balance is restored explicitly — this is the
  // "workload per cluster" objective of RHOP's refinement stage.
  auto rebalance = [&]() {
    for (std::size_t guard = 0; guard < n; ++guard) {
      std::uint32_t heaviest = 0;
      for (std::uint32_t p = 1; p < num_parts; ++p) {
        if (load[p] > load[heaviest]) heaviest = p;
      }
      if (load[heaviest] <= cap) return;
      std::uint32_t lightest = 0;
      for (std::uint32_t p = 1; p < num_parts; ++p) {
        if (load[p] < load[lightest]) lightest = p;
      }
      NodeId best_v = kInvalidNode;
      double best_cost = std::numeric_limits<double>::max();
      for (NodeId v = 0; v < n; ++v) {
        if (part_of[v] != heaviest) continue;
        double to_heavy = 0.0, to_light = 0.0;
        for (const HalfEdge& e : adj[v]) {
          if (part_of[e.to] == heaviest) to_heavy += e.weight;
          if (part_of[e.to] == lightest) to_light += e.weight;
        }
        const double cost = to_heavy - to_light;
        if (cost < best_cost) {
          best_cost = cost;
          best_v = v;
        }
      }
      if (best_v == kInvalidNode) return;
      load[heaviest] -= node_weight[best_v];
      load[lightest] += node_weight[best_v];
      part_of[best_v] = lightest;
    }
  };

  rebalance();
  for (std::uint32_t pass = 0; pass < kRefinePasses; ++pass) {
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    bool moved = false;
    for (NodeId v : order) {
      std::fill(affinity.begin(), affinity.end(), 0.0);
      for (const HalfEdge& e : adj[v]) affinity[part_of[e.to]] += e.weight;
      const std::uint32_t from = part_of[v];
      std::uint32_t best = from;
      double best_gain = 0.0;
      for (std::uint32_t p = 0; p < num_parts; ++p) {
        if (p == from) continue;
        if (load[p] + node_weight[v] > cap) continue;
        const double gain = affinity[p] - affinity[from];
        // Strictly positive gain, or zero gain that improves balance.
        const bool balance_win =
            gain == 0.0 && load[p] + node_weight[v] < load[from];
        if (gain > best_gain || (gain == best_gain && best != from &&
                                 load[p] < load[best]) ||
            (best == from && balance_win)) {
          best = p;
          best_gain = gain;
        }
      }
      if (best != from) {
        load[from] -= node_weight[v];
        load[best] += node_weight[v];
        part_of[v] = best;
        moved = true;
      }
    }
    rebalance();
    if (!moved) break;
  }
}

}  // namespace

double cut_weight(const Digraph& g,
                  const std::vector<std::uint32_t>& part_of) {
  VCSTEER_CHECK(part_of.size() == g.num_nodes());
  double cut = 0.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const HalfEdge& e : g.succs(u)) {
      if (part_of[u] != part_of[e.to]) cut += e.weight;
    }
  }
  return cut;
}

PartitionResult multilevel_partition(const Digraph& g,
                                     const std::vector<double>& node_weight,
                                     std::uint32_t num_parts,
                                     vcsteer::Rng& rng) {
  VCSTEER_CHECK(num_parts >= 1);
  VCSTEER_CHECK(node_weight.size() == g.num_nodes());
  PartitionResult result;
  if (g.num_nodes() == 0) {
    result.part_weight.assign(num_parts, 0.0);
    return result;
  }

  // Coarsening phase: stop when the graph is as small as the part count or
  // matching stops making progress (no adjacent unmatched pairs left).
  std::vector<Level> levels;
  const Digraph* current = &g;
  const std::vector<double>* current_w = &node_weight;
  while (current->num_nodes() > num_parts) {
    Level level = coarsen(*current, *current_w, rng);
    if (level.graph.num_nodes() == current->num_nodes()) break;
    levels.push_back(std::move(level));
    current = &levels.back().graph;
    current_w = &levels.back().node_weight;
  }

  std::vector<std::uint32_t> part_of =
      initial_partition(*current_w, num_parts);
  refine(*current, *current_w, part_of, num_parts, rng);

  // Uncoarsening phase: project the partition one level up, refine, repeat.
  for (std::size_t li = levels.size(); li-- > 0;) {
    const Digraph& fine = (li == 0) ? g : levels[li - 1].graph;
    const std::vector<double>& fine_w =
        (li == 0) ? node_weight : levels[li - 1].node_weight;
    std::vector<std::uint32_t> fine_part(fine.num_nodes());
    for (NodeId v = 0; v < fine.num_nodes(); ++v) {
      fine_part[v] = part_of[levels[li].fine_to_coarse[v]];
    }
    part_of = std::move(fine_part);
    refine(fine, fine_w, part_of, num_parts, rng);
  }

  result.part_of = std::move(part_of);
  result.part_weight.assign(num_parts, 0.0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    result.part_weight[result.part_of[v]] += node_weight[v];
  }
  result.cut_weight = cut_weight(g, result.part_of);
  return result;
}

}  // namespace vcsteer::graph
