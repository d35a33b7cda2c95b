// Tests for the multilevel graph partitioner (RHOP's engine), including
// parameterized property sweeps over random graphs: every node assigned,
// balance within tolerance, determinism, and cut quality versus naive
// splits.
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "graph/partition.hpp"

namespace vcsteer::graph {
namespace {

/// The balance tolerance multilevel_partition refines to (partition.hpp).
constexpr double kTolerance = 0.05;

Digraph random_dag(std::size_t n, double edge_prob, Rng& rng) {
  Digraph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.uniform() < edge_prob) {
        g.add_edge(u, v, 1.0 + rng.uniform() * 4.0);
      }
    }
  }
  return g;
}

TEST(Partition, TwoCliquesSplitCleanly) {
  // Two 4-cliques joined by a single light edge: the partitioner must cut
  // only the bridge.
  Digraph g(8);
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = a + 1; b < 4; ++b) {
      g.add_edge(a, b, 10.0);
      g.add_edge(a + 4, b + 4, 10.0);
    }
  }
  g.add_edge(3, 4, 0.5);
  Rng rng(1);
  const auto result = multilevel_partition(
      g, std::vector<double>(8, 1.0), 2, rng);
  EXPECT_DOUBLE_EQ(result.cut_weight, 0.5);
  EXPECT_EQ(result.part_of[0], result.part_of[3]);
  EXPECT_EQ(result.part_of[4], result.part_of[7]);
  EXPECT_NE(result.part_of[0], result.part_of[4]);
  EXPECT_DOUBLE_EQ(result.part_weight[0], 4.0);
  EXPECT_DOUBLE_EQ(result.part_weight[1], 4.0);
}

TEST(Partition, EmptyGraph) {
  Digraph g(0);
  Rng rng(1);
  const auto result = multilevel_partition(g, {}, 3, rng);
  EXPECT_TRUE(result.part_of.empty());
  EXPECT_EQ(result.part_weight.size(), 3u);
}

TEST(Partition, SinglePartTakesEverything) {
  Rng rng(2);
  Digraph g = random_dag(20, 0.2, rng);
  const auto result = multilevel_partition(
      g, std::vector<double>(20, 1.0), 1, rng);
  for (const auto p : result.part_of) EXPECT_EQ(p, 0u);
  EXPECT_DOUBLE_EQ(result.cut_weight, 0.0);
}

TEST(Partition, FewerNodesThanParts) {
  Digraph g(2);
  g.add_edge(0, 1, 1.0);
  Rng rng(3);
  const auto result = multilevel_partition(
      g, std::vector<double>(2, 1.0), 4, rng);
  EXPECT_EQ(result.part_of.size(), 2u);
  for (const auto p : result.part_of) EXPECT_LT(p, 4u);
}

TEST(Partition, DeterministicGivenSeed) {
  Rng build_rng(5);
  Digraph g = random_dag(60, 0.1, build_rng);
  const std::vector<double> w(60, 1.0);
  Rng rng_a(99), rng_b(99);
  const auto a = multilevel_partition(g, w, 2, rng_a);
  const auto b = multilevel_partition(g, w, 2, rng_b);
  EXPECT_EQ(a.part_of, b.part_of);
  EXPECT_DOUBLE_EQ(a.cut_weight, b.cut_weight);
}

TEST(CutWeight, CountsCrossEdgesOnce) {
  Digraph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  EXPECT_DOUBLE_EQ(cut_weight(g, {0, 0, 1}), 3.0);
  EXPECT_DOUBLE_EQ(cut_weight(g, {0, 1, 0}), 5.0);
  EXPECT_DOUBLE_EQ(cut_weight(g, {0, 0, 0}), 0.0);
}

// ---- property sweep: sizes x parts ----

struct PartitionCase {
  std::size_t nodes;
  std::uint32_t parts;
  double edge_prob;
};

class PartitionProperty : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(PartitionProperty, AssignsEveryNodeWithinBalance) {
  const PartitionCase param = GetParam();
  Rng rng(hash_seed("partition-prop", param.nodes * 131 + param.parts));
  Digraph g = random_dag(param.nodes, param.edge_prob, rng);
  std::vector<double> weights(param.nodes);
  for (auto& w : weights) w = 1.0 + rng.uniform() * 3.0;

  const auto result = multilevel_partition(g, weights, param.parts, rng);

  ASSERT_EQ(result.part_of.size(), param.nodes);
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<double> loads(param.parts, 0.0);
  for (std::size_t v = 0; v < param.nodes; ++v) {
    ASSERT_LT(result.part_of[v], param.parts);
    loads[result.part_of[v]] += weights[v];
  }
  for (std::uint32_t p = 0; p < param.parts; ++p) {
    EXPECT_DOUBLE_EQ(loads[p], result.part_weight[p]);
  }
  // Balance: no part exceeds the partitioner's 5% tolerance cap by more
  // than one max-weight node (the mover granularity).
  const double cap = (1.0 + kTolerance) * total / param.parts;
  const double max_w = *std::max_element(weights.begin(), weights.end());
  for (const double load : loads) EXPECT_LE(load, cap + max_w + 1e-9);
  // The reported cut matches a recount.
  EXPECT_NEAR(result.cut_weight, cut_weight(g, result.part_of), 1e-9);
}

TEST_P(PartitionProperty, BeatsOrMatchesContiguousSplit) {
  const PartitionCase param = GetParam();
  Rng rng(hash_seed("partition-cut", param.nodes * 17 + param.parts));
  Digraph g = random_dag(param.nodes, param.edge_prob, rng);
  const std::vector<double> weights(param.nodes, 1.0);
  const auto result = multilevel_partition(g, weights, param.parts, rng);

  // Naive contiguous-range split with the same part count.
  std::vector<std::uint32_t> naive(param.nodes);
  for (std::size_t v = 0; v < param.nodes; ++v) {
    naive[v] = static_cast<std::uint32_t>(v * param.parts / param.nodes);
  }
  EXPECT_LE(result.cut_weight, cut_weight(g, naive) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionProperty,
    ::testing::Values(PartitionCase{8, 2, 0.3}, PartitionCase{24, 2, 0.15},
                      PartitionCase{24, 4, 0.15}, PartitionCase{64, 2, 0.08},
                      PartitionCase{64, 4, 0.08}, PartitionCase{96, 3, 0.05},
                      PartitionCase{128, 4, 0.04}, PartitionCase{40, 8, 0.1}),
    [](const ::testing::TestParamInfo<PartitionCase>& info) {
      return "n" + std::to_string(info.param.nodes) + "_k" +
             std::to_string(info.param.parts);
    });

}  // namespace
}  // namespace vcsteer::graph
