// Unit tests for the graph module: digraph semantics, topological order,
// critical-path analysis (depth/height/slack as used by the VC pass and
// RHOP), and weakly connected components (chain identification).
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/algorithms.hpp"
#include "graph/digraph.hpp"

namespace vcsteer::graph {
namespace {

Digraph diamond() {
  // 0 -> 1 -> 3, 0 -> 2 -> 3
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return g;
}

TEST(Digraph, DegreesAndEdges) {
  const Digraph g = diamond();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(3), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
}

TEST(Digraph, ParallelEdgeKeepsMaxWeight) {
  Digraph g(2);
  g.add_edge(0, 1, 2.0);
  g.add_edge(0, 1, 5.0);
  g.add_edge(0, 1, 1.0);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.succs(0)[0].weight, 5.0);
  EXPECT_DOUBLE_EQ(g.preds(1)[0].weight, 5.0);
}

TEST(Digraph, AccumulateEdgeSumsWeights) {
  Digraph g(2);
  g.add_or_accumulate_edge(0, 1, 2.0);
  g.add_or_accumulate_edge(0, 1, 3.0);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.succs(0)[0].weight, 5.0);
}

TEST(Topological, OrderRespectsEdges) {
  const Digraph g = diamond();
  const auto order = topological_order(g);
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[0], pos[2]);
  EXPECT_LT(pos[1], pos[3]);
  EXPECT_LT(pos[2], pos[3]);
}

TEST(Topological, CycleDetection) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_DEATH(topological_order(g), "cycle");
}

TEST(Topological, EmptyAndSingleton) {
  EXPECT_TRUE(topological_order(Digraph(0)).empty());
  EXPECT_EQ(topological_order(Digraph(1)).size(), 1u);
}

TEST(CriticalPath, LinearChain) {
  // 0 -> 1 -> 2 with latencies 2, 3, 4.
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto info = critical_paths(g, {2, 3, 4});
  EXPECT_DOUBLE_EQ(info.depth[0], 0);
  EXPECT_DOUBLE_EQ(info.depth[1], 2);
  EXPECT_DOUBLE_EQ(info.depth[2], 5);
  EXPECT_DOUBLE_EQ(info.height[2], 4);
  EXPECT_DOUBLE_EQ(info.height[1], 7);
  EXPECT_DOUBLE_EQ(info.height[0], 9);
  EXPECT_DOUBLE_EQ(info.critical_length, 9);
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_TRUE(info.is_critical(v));
    EXPECT_DOUBLE_EQ(info.slack(v), 0.0);
  }
}

TEST(CriticalPath, DiamondSlack) {
  // 0 ->(1) 1 ->(5) 3 ; 0 ->(?) 2 ->(1) 3 — node latencies below.
  Digraph g = diamond();
  const auto info = critical_paths(g, {1, 5, 1, 1});
  // Critical path: 0 -> 1 -> 3 with length 1+5+1 = 7.
  EXPECT_DOUBLE_EQ(info.critical_length, 7);
  EXPECT_TRUE(info.is_critical(0));
  EXPECT_TRUE(info.is_critical(1));
  EXPECT_TRUE(info.is_critical(3));
  EXPECT_FALSE(info.is_critical(2));
  // Node 2: depth 1, height 2 -> criticality 3, slack 4.
  EXPECT_DOUBLE_EQ(info.criticality(2), 3);
  EXPECT_DOUBLE_EQ(info.slack(2), 4);
}

TEST(CriticalPath, IndependentNodes) {
  Digraph g(3);
  const auto info = critical_paths(g, {1, 7, 2});
  EXPECT_DOUBLE_EQ(info.critical_length, 7);
  EXPECT_TRUE(info.is_critical(1));
  EXPECT_FALSE(info.is_critical(0));
}

TEST(Components, TwoIslands) {
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  // node 4 isolated
  const Components c = weak_components(g);
  EXPECT_EQ(c.num_components, 3u);
  EXPECT_EQ(c.component_of[0], c.component_of[1]);
  EXPECT_EQ(c.component_of[2], c.component_of[3]);
  EXPECT_NE(c.component_of[0], c.component_of[2]);
  EXPECT_NE(c.component_of[4], c.component_of[0]);
}

TEST(Components, DirectionIgnored) {
  Digraph g(3);
  g.add_edge(1, 0);
  g.add_edge(1, 2);
  const Components c = weak_components(g);
  EXPECT_EQ(c.num_components, 1u);
}

TEST(Components, MaskedSplitsAcrossMask) {
  // Chain 0 -> 1 -> 2 -> 3; masking out node 1 separates {0} and {2,3}.
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const Components c =
      weak_components_masked(g, {true, false, true, true});
  EXPECT_EQ(c.num_components, 2u);
  EXPECT_EQ(c.component_of[1], kNoComponent);
  EXPECT_NE(c.component_of[0], c.component_of[2]);
  EXPECT_EQ(c.component_of[2], c.component_of[3]);
}

TEST(Components, ComponentIdsAreDense) {
  Digraph g(4);
  const Components c = weak_components(g);
  EXPECT_EQ(c.num_components, 4u);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(c.component_of[v], v);
}

}  // namespace
}  // namespace vcsteer::graph
