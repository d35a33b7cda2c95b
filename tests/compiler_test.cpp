// Tests for the software-side steering passes: DDG construction,
// criticality, the VC partitioner + chain identification (paper Figures 2
// and 3), the OB/SPDI placement and the RHOP partitioning pass.
#include <gtest/gtest.h>

#include <set>

#include "compiler/ob_pass.hpp"
#include "compiler/region.hpp"
#include "compiler/rhop_pass.hpp"
#include "compiler/vc_pass.hpp"
#include "program/program.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace vcsteer::compiler {
namespace {

using isa::ArchReg;
using isa::OpClass;
using isa::RegFile;
using prog::Program;
using prog::ProgramBuilder;

ArchReg r(std::uint8_t i) { return {RegFile::kInt, i}; }

/// One block: two independent chains (r1->r1 and r2->r2) plus an isolated op.
Program two_chain_program(std::uint32_t chain_len = 4) {
  ProgramBuilder b("two-chains");
  b.begin_block();
  for (std::uint32_t i = 0; i < chain_len; ++i) {
    b.add(OpClass::kIntAlu, r(1), {r(1)});
    b.add(OpClass::kIntAlu, r(2), {r(2)});
  }
  b.add(OpClass::kIntAlu, r(9), {r(8)});  // isolated (no in-block producer)
  b.end_block({{0, 1.0}});
  return std::move(b).finish();
}

TEST(Ddg, EdgesFollowDefUse) {
  ProgramBuilder b("ddg");
  b.begin_block();
  b.add(OpClass::kIntAlu, r(1), {r(0)});       // 0
  b.add(OpClass::kIntAlu, r(2), {r(1)});       // 1: depends on 0
  b.add(OpClass::kIntAlu, r(1), {r(0)});       // 2: redefines r1
  b.add(OpClass::kIntAlu, r(3), {r(1), r(2)}); // 3: depends on 2 and 1
  b.end_block({{0, 1.0}});
  const Program p = std::move(b).finish();
  const RegionDdg ddg = build_region_ddg(p, Region{{0}, {1.0}});
  EXPECT_TRUE(ddg.graph.has_edge(0, 1));
  EXPECT_TRUE(ddg.graph.has_edge(1, 3));
  EXPECT_TRUE(ddg.graph.has_edge(2, 3));
  EXPECT_FALSE(ddg.graph.has_edge(0, 3));  // r1 was redefined by 2
  EXPECT_FALSE(ddg.graph.has_edge(0, 2));
}

TEST(Ddg, CrossBlockValuesHaveNoProducer) {
  const Program p = two_chain_program();
  const RegionDdg ddg = build_region_ddg(p, Region{{0}, {1.0}});
  // First op of each chain reads a register with no in-block def: no preds.
  EXPECT_EQ(ddg.graph.in_degree(0), 0u);
  EXPECT_EQ(ddg.graph.in_degree(1), 0u);
}

TEST(Ddg, StaticLatencyAssumesL1Hit) {
  isa::MicroOp ld;
  ld.op = OpClass::kLoad;
  EXPECT_DOUBLE_EQ(static_latency(ld), 4.0);  // 1 agen + 3 L1
  isa::MicroOp mul;
  mul.op = OpClass::kIntMul;
  EXPECT_DOUBLE_EQ(static_latency(mul), 3.0);
}

TEST(Ddg, CriticalityOfSerialChain) {
  ProgramBuilder b("serial");
  b.begin_block();
  for (int i = 0; i < 5; ++i) b.add(OpClass::kIntAlu, r(1), {r(1)});
  b.end_block({{0, 1.0}});
  const Program p = std::move(b).finish();
  const RegionDdg ddg = build_region_ddg(p, Region{{0}, {1.0}});
  EXPECT_DOUBLE_EQ(ddg.crit.critical_length, 5.0);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_TRUE(ddg.crit.is_critical(i));
}

TEST(VcPass, AssignsEveryUopAVc) {
  Program p = two_chain_program();
  VcOptions opt;
  opt.num_vcs = 2;
  const VcPassStats stats = assign_virtual_clusters(p, opt);
  EXPECT_EQ(stats.instructions, p.num_uops());
  for (prog::UopId u = 0; u < p.num_uops(); ++u) {
    ASSERT_TRUE(p.uop(u).hint.has_vc());
    EXPECT_LT(p.uop(u).hint.vc_id, 2);
    EXPECT_FALSE(p.uop(u).hint.has_static_cluster());
  }
}

TEST(VcPass, TwoChainsLandInDifferentVcs) {
  Program p = two_chain_program(6);
  VcOptions opt;
  opt.num_vcs = 2;
  assign_virtual_clusters(p, opt);
  // Each chain stays within one VC...
  const std::uint8_t vc_a = p.uop(0).hint.vc_id;
  const std::uint8_t vc_b = p.uop(1).hint.vc_id;
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(p.uop(2 * i).hint.vc_id, vc_a) << i;
    EXPECT_EQ(p.uop(2 * i + 1).hint.vc_id, vc_b) << i;
  }
  // ...and the chains use both VCs (parallelism preserved).
  EXPECT_NE(vc_a, vc_b);
}

TEST(VcPass, ChainLeadersHeadChains) {
  Program p = two_chain_program(6);
  VcOptions opt;
  opt.num_vcs = 2;
  opt.min_leader_chain = 2;
  const VcPassStats stats = assign_virtual_clusters(p, opt);
  // The first op of each chain is a leader; mid-chain ops are not.
  EXPECT_TRUE(p.uop(0).hint.chain_leader);
  EXPECT_TRUE(p.uop(1).hint.chain_leader);
  for (std::uint32_t i = 2; i < 12; ++i) {
    EXPECT_FALSE(p.uop(i).hint.chain_leader) << i;
  }
  EXPECT_GE(stats.chains, 2u);
  EXPECT_GE(stats.leaders, 2u);
}

TEST(VcPass, TrivialChainsGetNoLeaderMark) {
  Program p = two_chain_program(6);
  VcOptions opt;
  opt.num_vcs = 2;
  opt.min_leader_chain = 2;
  assign_virtual_clusters(p, opt);
  // The isolated final op forms a singleton chain: no leader mark.
  EXPECT_FALSE(p.uop(p.num_uops() - 1).hint.chain_leader);
}

TEST(VcPass, SingleVcPutsEverythingTogether) {
  Program p = two_chain_program();
  VcOptions opt;
  opt.num_vcs = 1;
  assign_virtual_clusters(p, opt);
  for (prog::UopId u = 0; u < p.num_uops(); ++u) {
    EXPECT_EQ(p.uop(u).hint.vc_id, 0);
  }
}

TEST(VcPass, StatsAreConsistent) {
  Program p = two_chain_program();
  VcOptions opt;
  opt.num_vcs = 2;
  const VcPassStats stats = assign_virtual_clusters(p, opt);
  EXPECT_GT(stats.chains, 0u);
  EXPECT_LE(stats.leaders, stats.chains);
  EXPECT_GT(stats.avg_chain_length, 0.0);
}

TEST(ObPass, AssignsEveryUopACluster) {
  Program p = two_chain_program();
  ObOptions opt;
  opt.num_clusters = 2;
  const ObPassStats stats = assign_ob(p, opt);
  EXPECT_EQ(stats.instructions, p.num_uops());
  for (prog::UopId u = 0; u < p.num_uops(); ++u) {
    ASSERT_TRUE(p.uop(u).hint.has_static_cluster());
    EXPECT_LT(p.uop(u).hint.static_cluster, 2);
    EXPECT_FALSE(p.uop(u).hint.has_vc());
  }
}

TEST(ObPass, RootsRoundRobinAcrossClusters) {
  // A block of only independent ops: SPDI distributes them round-robin.
  ProgramBuilder b("independent");
  b.begin_block();
  for (std::uint8_t i = 0; i < 8; ++i) {
    b.add(OpClass::kIntAlu, r(static_cast<std::uint8_t>(4 + i % 8)), {});
  }
  b.end_block({{0, 1.0}});
  Program p = std::move(b).finish();
  ObOptions opt;
  opt.num_clusters = 2;
  assign_ob(p, opt);
  for (prog::UopId u = 0; u < 8; ++u) {
    EXPECT_EQ(p.uop(u).hint.static_cluster, static_cast<std::int8_t>(u % 2));
  }
}

TEST(ObPass, DependentsFollowOperands) {
  ProgramBuilder b("chain");
  b.begin_block();
  b.add(OpClass::kIntAlu, r(1), {});      // root -> cluster 0 (round-robin)
  b.add(OpClass::kIntAlu, r(2), {r(1)});  // follows r1
  b.add(OpClass::kIntAlu, r(3), {r(2)});  // follows r2
  b.end_block({{0, 1.0}});
  Program p = std::move(b).finish();
  ObOptions opt;
  opt.num_clusters = 2;
  opt.comm_cost = 2.0;
  const ObPassStats stats = assign_ob(p, opt);
  EXPECT_EQ(p.uop(1).hint.static_cluster, p.uop(0).hint.static_cluster);
  EXPECT_EQ(p.uop(2).hint.static_cluster, p.uop(1).hint.static_cluster);
  EXPECT_EQ(stats.est_cross_cluster_edges, 0u);
}

TEST(RhopPass, AssignsEveryUopACluster) {
  Program p = two_chain_program();
  RhopOptions opt;
  opt.num_clusters = 2;
  const RhopPassStats stats = assign_rhop(p, opt);
  EXPECT_EQ(stats.instructions, p.num_uops());
  for (prog::UopId u = 0; u < p.num_uops(); ++u) {
    ASSERT_TRUE(p.uop(u).hint.has_static_cluster());
    EXPECT_LT(p.uop(u).hint.static_cluster, 2);
  }
}

TEST(RhopPass, KeepsChainsTogetherSplitsAcrossChains) {
  Program p = two_chain_program(8);
  RhopOptions opt;
  opt.num_clusters = 2;
  assign_rhop(p, opt);
  // Within each chain, all ops share a cluster (heavy slack-weighted edges
  // are never cut when a zero-cost split exists); the two chains separate
  // for balance.
  const std::int8_t c_a = p.uop(0).hint.static_cluster;
  const std::int8_t c_b = p.uop(1).hint.static_cluster;
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(p.uop(2 * i).hint.static_cluster, c_a);
    EXPECT_EQ(p.uop(2 * i + 1).hint.static_cluster, c_b);
  }
  EXPECT_NE(c_a, c_b);
}

TEST(RhopPass, DeterministicForFixedSeed) {
  Program p1 = two_chain_program();
  Program p2 = two_chain_program();
  RhopOptions opt;
  opt.num_clusters = 2;
  opt.seed = 1234;
  assign_rhop(p1, opt);
  assign_rhop(p2, opt);
  for (prog::UopId u = 0; u < p1.num_uops(); ++u) {
    EXPECT_EQ(p1.uop(u).hint.static_cluster, p2.uop(u).hint.static_cluster);
  }
}

// ---- property sweep: passes over generated SPEC workloads ----

class PassesOnWorkloads
    : public ::testing::TestWithParam<const char*> {};

TEST_P(PassesOnWorkloads, AllPassesCoverAllUops) {
  const workload::WorkloadProfile* profile =
      workload::find_profile(GetParam());
  ASSERT_NE(profile, nullptr);
  workload::GeneratedWorkload wl = workload::generate(*profile);

  VcOptions vc;
  vc.num_vcs = 4;
  const VcPassStats vc_stats = assign_virtual_clusters(wl.program, vc);
  EXPECT_EQ(vc_stats.instructions, wl.program.num_uops());
  std::set<std::uint8_t> vcs_used;
  for (prog::UopId u = 0; u < wl.program.num_uops(); ++u) {
    ASSERT_TRUE(wl.program.uop(u).hint.has_vc());
    vcs_used.insert(wl.program.uop(u).hint.vc_id);
  }
  EXPECT_GE(vcs_used.size(), 2u);  // real workloads exercise several VCs
  EXPECT_GT(vc_stats.leaders, 0u);

  wl.program.clear_hints();
  ObOptions ob;
  ob.num_clusters = 4;
  assign_ob(wl.program, ob);
  std::set<std::int8_t> ob_clusters;
  for (prog::UopId u = 0; u < wl.program.num_uops(); ++u) {
    ASSERT_TRUE(wl.program.uop(u).hint.has_static_cluster());
    ob_clusters.insert(wl.program.uop(u).hint.static_cluster);
  }
  EXPECT_EQ(ob_clusters.size(), 4u);

  wl.program.clear_hints();
  RhopOptions rhop;
  rhop.num_clusters = 4;
  const RhopPassStats rhop_stats = assign_rhop(wl.program, rhop);
  EXPECT_EQ(rhop_stats.instructions, wl.program.num_uops());
  // RHOP's refinement respects its balance tolerance per block (allowing
  // the one-node granularity slop of FM moves).
  EXPECT_LT(rhop_stats.worst_imbalance, 3.5);
}

INSTANTIATE_TEST_SUITE_P(Workloads, PassesOnWorkloads,
                         ::testing::Values("164.gzip-1", "181.mcf",
                                           "186.crafty", "178.galgel",
                                           "171.swim", "176.gcc-3"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace vcsteer::compiler
