// Tests for the steering policies against the scriptable FakeSteerView
// (tests/fake_steer_view.hpp): OP preference / tie-break / stall-over-steer,
// the topology-aware OP and VC paths (hand-built occupancy / distance /
// contention scenarios), the VC mapping table and chain-leader remapping,
// the static follower and the factory.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "fake_steer_view.hpp"
#include "steer/mod_policy.hpp"
#include "steer/op_policy.hpp"
#include "steer/policy.hpp"
#include "steer/simple_policies.hpp"
#include "steer/vc_policy.hpp"

namespace vcsteer::steer {
namespace {

using isa::ArchReg;
using isa::MicroOp;
using isa::OpClass;
using isa::RegFile;

ArchReg r(std::uint8_t i) { return {RegFile::kInt, i}; }

MicroOp alu(std::initializer_list<ArchReg> srcs, ArchReg dst = r(15)) {
  MicroOp u;
  u.op = OpClass::kIntAlu;
  u.has_dst = true;
  u.dst = dst;
  VCSTEER_CHECK(srcs.size() <= 2);
  for (ArchReg s : srcs) u.srcs[u.num_srcs++] = s;
  return u;
}

using MockView = FakeSteerView;

MachineConfig two_clusters() { return MachineConfig::two_cluster(); }

MachineConfig aware_ring(std::uint32_t clusters = 4) {
  MachineConfig cfg = clusters == 2 ? MachineConfig::two_cluster()
                                    : MachineConfig::four_cluster();
  cfg.interconnect.kind = Topology::kRing;
  cfg.steer.topology_aware = true;
  return cfg;
}

TEST(OpPolicy, FollowsSingleSourceHome) {
  MockView view(2);
  view.set_home(r(1), 1);
  OpPolicy policy(two_clusters());
  const auto d = policy.choose(alu({r(1)}), view);
  EXPECT_EQ(d.cluster, 1);
}

TEST(OpPolicy, MajorityOfSourcesWins) {
  MockView view(2);
  view.set_home(r(1), 0);
  view.set_home(r(2), 0);
  view.set_inflight(1, 0);
  view.set_inflight(0, 40);  // heavily loaded, but both sources live there
  OpPolicy policy(two_clusters());
  EXPECT_EQ(policy.choose(alu({r(1), r(2)}), view).cluster, 0);
}

TEST(OpPolicy, TieBrokenByLoad) {
  MockView view(2);
  view.set_home(r(1), 0);
  view.set_home(r(2), 1);
  view.set_inflight(0, 10);
  view.set_inflight(1, 2);
  OpPolicy policy(two_clusters());
  EXPECT_EQ(policy.choose(alu({r(1), r(2)}), view).cluster, 1);
}

TEST(OpPolicy, InFlightSourceOutweighsReadyOne) {
  MockView view(2);
  view.set_home(r(1), 0, /*in_flight=*/true);   // copy would be on the
  view.set_home(r(2), 1, /*in_flight=*/false);  // critical path
  view.set_inflight(0, 10);
  view.set_inflight(1, 0);  // load would favour 1, dependence wins
  OpPolicy policy(two_clusters());
  EXPECT_EQ(policy.choose(alu({r(1), r(2)}), view).cluster, 0);
}

TEST(OpPolicy, ReplicaCountsAsPresence) {
  MockView view(2);
  view.set_home(r(1), 0);
  view.set_home(r(2), 1);
  view.add_replica(r(1), 1);  // r1 already copied to cluster 1
  view.set_inflight(0, 0);
  view.set_inflight(1, 0);
  OpPolicy policy(two_clusters());
  // Cluster 1 holds both values (r2 home + r1 replica): 2 votes vs 1.
  EXPECT_EQ(policy.choose(alu({r(1), r(2)}), view).cluster, 1);
}

TEST(OpPolicy, NoSourcesGoesLeastLoaded) {
  MockView view(2);
  view.set_inflight(0, 9);
  view.set_inflight(1, 3);
  OpPolicy policy(two_clusters());
  EXPECT_EQ(policy.choose(alu({}), view).cluster, 1);
}

TEST(OpPolicy, StallsWhenPreferredFullAndOthersBusy) {
  MachineConfig cfg = two_clusters();
  cfg.op_occupancy_threshold = 0.75;
  MockView view(2);
  view.set_home(r(1), 0);
  view.set_occupancy(0, 48);  // preferred full
  view.set_occupancy(1, 40);  // above 0.75 * 48 = 36: busy
  OpPolicy policy(cfg);
  EXPECT_TRUE(policy.choose(alu({r(1)}), view).is_stall());
}

TEST(OpPolicy, DivertsWhenAnotherClusterIsIdle) {
  MockView view(2);
  view.set_home(r(1), 0);
  view.set_occupancy(0, 48);
  view.set_occupancy(1, 5);  // clearly idle: steer-over-stall
  OpPolicy policy(two_clusters());
  EXPECT_EQ(policy.choose(alu({r(1)}), view).cluster, 1);
}

TEST(ParallelOpPolicy, UsesStaleRenameView) {
  MockView view(2);
  view.set_home(r(1), 1);
  view.set_stale_home(r(1), 0);  // cycle-start state says cluster 0
  ParallelOpPolicy par(two_clusters());
  OpPolicy seq(two_clusters());
  EXPECT_EQ(par.choose(alu({r(1)}), view).cluster, 0);
  EXPECT_EQ(seq.choose(alu({r(1)}), view).cluster, 1);
}

// ---------------------------------------------------- topology-aware OP --

TEST(TopologyAwareOp, AvoidsContendedTwoHopClusterTheFlatTiebreakPicks) {
  // r1 lives in cluster 1, r2 in cluster 3: a one-vote-each tie. The flat
  // tiebreak goes to the less loaded cluster 3 — which is 2 ring hops from
  // r1's home over a congested path. The aware score sees both candidates
  // cost 2 hops but the 1 -> 3 path carrying 6 cycles of recent wait, and
  // steers to cluster 1 instead.
  MockView view(4);
  view.ring_distances()
      .set_home(r(1), 1)
      .set_home(r(2), 3)
      .set_inflight(1, 10)
      .set_inflight(3, 2)
      .set_congestion(1, 3, 6.0);

  OpPolicy flat(MachineConfig::four_cluster());
  EXPECT_EQ(flat.choose(alu({r(1), r(2)}), view).cluster, 3);

  OpPolicy aware(aware_ring());
  const MicroOp uop = alu({r(1), r(2)});
  EXPECT_EQ(aware.choose(uop, view).cluster, 1);
  EXPECT_EQ(aware.avoided_contended_links(), 0u);  // not dispatched yet
  aware.on_dispatched(uop, 1);
  EXPECT_EQ(aware.avoided_contended_links(), 1u);
}

TEST(TopologyAwareOp, PrefersNearProducerOnRing) {
  // Votes tie between clusters 1 and 2; on the unidirectional ring, pulling
  // r2 backwards from 2 to 1 costs 3 hops while pulling r1 forwards from 1
  // to 2 costs 1, so the aware policy picks 2 even though 1 is less loaded.
  MockView view(4);
  view.ring_distances()
      .set_home(r(1), 1)
      .set_home(r(2), 2)
      .set_inflight(1, 0)
      .set_inflight(2, 7);
  OpPolicy aware(aware_ring());
  EXPECT_EQ(aware.choose(alu({r(1), r(2)}), view).cluster, 2);
  OpPolicy flat(MachineConfig::four_cluster());
  EXPECT_EQ(flat.choose(alu({r(1), r(2)}), view).cluster, 1);
}

TEST(TopologyAwareOp, MatchesFlatOnUniformQuietFabric) {
  // With uniform single-hop distances and no congestion the cost score
  // degenerates to the vote count: every flat decision is reproduced.
  MachineConfig aware_cfg = MachineConfig::four_cluster();
  aware_cfg.steer.topology_aware = true;
  OpPolicy aware(aware_cfg);
  OpPolicy flat(MachineConfig::four_cluster());

  const MicroOp uops[] = {alu({r(1)}), alu({r(1), r(2)}), alu({}),
                          alu({r(1), r(3)})};
  for (int scenario = 0; scenario < 3; ++scenario) {
    MockView view(4);
    view.set_inflight(0, 5).set_inflight(1, 2).set_inflight(2, 9);
    if (scenario >= 1) view.set_home(r(1), 0).set_home(r(2), 2);
    if (scenario >= 2) {
      view.set_home(r(3), 2, /*in_flight=*/true).add_replica(r(1), 2);
    }
    for (const MicroOp& u : uops) {
      EXPECT_EQ(aware.choose(u, view).cluster, flat.choose(u, view).cluster)
          << "scenario " << scenario;
    }
  }
}

TEST(TopologyAwareOp, StallOverSteerDivertsToCheapestPath) {
  // Preferred cluster 0 (r1's home) is full and cluster 2 is above the
  // 0.75 * 48 occupancy threshold. Both 1 and 3 are under it; flat diverts
  // to the emptier 3, the aware variant to 1 — one forward ring hop from
  // the producer instead of three.
  MockView view(4);
  view.ring_distances()
      .set_home(r(1), 0)
      .set_occupancy(0, 48)
      .set_occupancy(1, 10)
      .set_occupancy(2, 40)
      .set_occupancy(3, 5);
  OpPolicy flat(MachineConfig::four_cluster());
  EXPECT_EQ(flat.choose(alu({r(1)}), view).cluster, 3);
  OpPolicy aware(aware_ring());
  EXPECT_EQ(aware.choose(alu({r(1)}), view).cluster, 1);
}

TEST(TopologyAwareOp, ParallelVariantUsesStaleViewAndDistances) {
  MockView view(4);
  view.ring_distances()
      .set_home(r(1), 1)
      .set_home(r(2), 2)
      .set_stale_home(r(2), 3)  // cycle-start state: r2 still in 3
      .set_inflight(1, 0);
  ParallelOpPolicy aware(aware_ring());
  // From the stale view the candidates are 1 and 3, both 2 hops from the
  // other source's home; congestion on 1 -> 3 breaks the tie towards 1.
  view.set_congestion(1, 3, 4.0);
  EXPECT_EQ(aware.choose(alu({r(1), r(2)}), view).cluster, 1);
}

TEST(TopologyAwareOp, FlatConfigReportsNoAvoidedLinks) {
  MockView view(4);
  view.ring_distances().set_home(r(1), 1).set_congestion(1, 3, 6.0);
  OpPolicy flat(MachineConfig::four_cluster());
  const MicroOp u = alu({r(1)});
  const auto d = flat.choose(u, view);
  flat.on_dispatched(u, static_cast<std::uint32_t>(d.cluster));
  EXPECT_EQ(flat.avoided_contended_links(), 0u);
}

// ---------------------------------------------------- topology-aware VC --

TEST(TopologyAwareVc, LeaderRemapWeighsChainLocality) {
  // VC 0 currently runs on cluster 0. The flat remap chases the globally
  // least loaded cluster 2 (two ring hops away, score 2 + 2 = 4); the
  // aware score charges each candidate the move cost from cluster 0 and
  // keeps the VC home (score 3 + 0 hops).
  MockView view(4);
  view.ring_distances()
      .set_inflight(0, 3)
      .set_inflight(1, 4)
      .set_inflight(2, 2)
      .set_inflight(3, 4);
  VcPolicy aware(aware_ring(), 4);
  MicroOp leader = alu({r(1)});
  leader.hint.vc_id = 0;
  leader.hint.chain_leader = true;
  aware.on_dispatched(leader, 0);  // establish the current mapping
  EXPECT_EQ(aware.choose(leader, view).cluster, 0);
  aware.on_dispatched(leader, 0);
  EXPECT_EQ(aware.avoided_contended_links(), 1u);

  VcPolicy flat(MachineConfig::four_cluster(), 4);
  flat.on_dispatched(leader, 0);
  EXPECT_EQ(flat.choose(leader, view).cluster, 2);
}

TEST(TopologyAwareVc, ContendedMovePathRedirectsRemap) {
  // Moving VC 0 from cluster 0 to the least loaded cluster 1 crosses the
  // congested 0 -> 1 link; the aware remap hops to cluster 2 instead once
  // the observed wait outweighs the extra hop.
  MockView view(4);
  view.ring_distances()
      .set_inflight(0, 6)
      .set_inflight(1, 0)
      .set_inflight(2, 1)
      .set_inflight(3, 4)
      .set_congestion(0, 1, 5.0)
      .set_congestion(0, 2, 0.5);
  VcPolicy aware(aware_ring(), 4);
  MicroOp leader = alu({r(1)});
  leader.hint.vc_id = 0;
  leader.hint.chain_leader = true;
  aware.on_dispatched(leader, 0);
  // score(1) = 0 + 1 + 5.0 = 6.0; score(2) = 1 + 2 + 0.5 = 3.5.
  EXPECT_EQ(aware.choose(leader, view).cluster, 2);
}

TEST(TopologyAwareVc, UnmappedVcStillGoesLeastLoaded) {
  MockView view(4);
  view.ring_distances()
      .set_inflight(0, 5)
      .set_inflight(1, 3)
      .set_inflight(2, 1)
      .set_inflight(3, 3);
  VcPolicy aware(aware_ring(), 4);
  MicroOp leader = alu({r(1)});
  leader.hint.vc_id = 1;
  leader.hint.chain_leader = true;
  EXPECT_EQ(aware.choose(leader, view).cluster, 2);
}

TEST(OneCluster, AlwaysZero) {
  MockView view(4);
  view.set_inflight(0, 1000);
  OneClusterPolicy policy;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(policy.choose(alu({r(1)}), view).cluster, 0);
  }
}

TEST(StaticFollower, FollowsHintAndClampsToMachine) {
  MockView view(2);
  StaticFollowerPolicy policy("OB");
  MicroOp u = alu({r(1)});
  u.hint.static_cluster = 1;
  EXPECT_EQ(policy.choose(u, view).cluster, 1);
  u.hint.static_cluster = 3;  // annotated for a 4-cluster machine
  EXPECT_EQ(policy.choose(u, view).cluster, 1);  // 3 % 2
  MicroOp unhinted = alu({r(1)});
  EXPECT_EQ(policy.choose(unhinted, view).cluster, 0);
  EXPECT_EQ(policy.name(), "OB");
}

TEST(VcPolicy, LeaderRemapsToLeastLoaded) {
  MockView view(2);
  view.set_inflight(0, 8);
  view.set_inflight(1, 2);
  VcPolicy policy(two_clusters(), 2);
  MicroOp leader = alu({r(1)});
  leader.hint.vc_id = 0;
  leader.hint.chain_leader = true;
  const auto d = policy.choose(leader, view);
  EXPECT_EQ(d.cluster, 1);
  policy.on_dispatched(leader, 1);
  EXPECT_EQ(policy.mapping(0), 1);
  EXPECT_EQ(policy.remaps(), 1u);
}

TEST(VcPolicy, NonLeaderFollowsTable) {
  MockView view(2);
  view.set_inflight(0, 0);
  view.set_inflight(1, 50);
  VcPolicy policy(two_clusters(), 2);
  MicroOp leader = alu({r(1)});
  leader.hint.vc_id = 1;
  leader.hint.chain_leader = true;
  policy.on_dispatched(leader, 1);
  // Follower of VC 1 goes to cluster 1 despite the load imbalance.
  MicroOp follower = alu({r(2)});
  follower.hint.vc_id = 1;
  EXPECT_EQ(policy.choose(follower, view).cluster, 1);
}

TEST(VcPolicy, UnmappedVcMapsOnFirstUse) {
  MockView view(2);
  view.set_inflight(0, 5);
  view.set_inflight(1, 1);
  VcPolicy policy(two_clusters(), 2);
  MicroOp follower = alu({r(1)});
  follower.hint.vc_id = 0;  // not a leader, but table is empty
  EXPECT_EQ(policy.choose(follower, view).cluster, 1);
  policy.on_dispatched(follower, 1);
  EXPECT_EQ(policy.mapping(0), 1);
}

TEST(VcPolicy, NoHintFallsBackToLeastLoaded) {
  MockView view(4);
  view.set_inflight(2, 0);
  view.set_inflight(0, 3);
  view.set_inflight(1, 3);
  view.set_inflight(3, 3);
  VcPolicy policy(MachineConfig::four_cluster(), 4);
  EXPECT_EQ(policy.choose(alu({r(1)}), view).cluster, 2);
}

TEST(VcPolicy, MoreVcsThanTableWraps) {
  MockView view(2);
  VcPolicy policy(two_clusters(), 2);
  MicroOp u = alu({r(1)});
  u.hint.vc_id = 5;  // annotated with more VCs than the hardware table
  u.hint.chain_leader = true;
  const auto d = policy.choose(u, view);
  EXPECT_GE(d.cluster, 0);
  policy.on_dispatched(u, static_cast<std::uint32_t>(d.cluster));
  EXPECT_EQ(policy.mapping(5 % 2), d.cluster);
}

TEST(VcPolicy, ResetClearsTable) {
  MockView view(2);
  VcPolicy policy(two_clusters(), 2);
  MicroOp leader = alu({r(1)});
  leader.hint.vc_id = 0;
  leader.hint.chain_leader = true;
  policy.on_dispatched(leader, 1);
  policy.reset();
  EXPECT_EQ(policy.mapping(0), kNoHome);
  EXPECT_EQ(policy.remaps(), 0u);
}

TEST(ModN, SwitchesEveryNDispatches) {
  MockView view(4);
  ModNPolicy policy(3);
  const MicroOp u = alu({r(1)});
  std::vector<int> sequence;
  for (int i = 0; i < 12; ++i) {
    const auto d = policy.choose(u, view);
    sequence.push_back(d.cluster);
    policy.on_dispatched(u, static_cast<std::uint32_t>(d.cluster));
  }
  // Slices of 3 micro-ops per cluster, wrapping around 4 clusters.
  const std::vector<int> expected = {0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3};
  EXPECT_EQ(sequence, expected);
}

TEST(ModN, OnlyAdvancesOnDispatch) {
  MockView view(2);
  ModNPolicy policy(1);
  const MicroOp u = alu({r(1)});
  // choose() without dispatch must not advance (a stalled micro-op retries
  // the same slice).
  EXPECT_EQ(policy.choose(u, view).cluster, 0);
  EXPECT_EQ(policy.choose(u, view).cluster, 0);
  policy.on_dispatched(u, 0);
  EXPECT_EQ(policy.choose(u, view).cluster, 1);
}

TEST(ModN, ResetAndDegenerateN) {
  MockView view(2);
  ModNPolicy policy(0);  // clamps to 1
  EXPECT_EQ(policy.name(), "MOD1");
  const MicroOp u = alu({r(1)});
  policy.on_dispatched(u, 0);
  EXPECT_EQ(policy.choose(u, view).cluster, 1);
  policy.reset();
  EXPECT_EQ(policy.choose(u, view).cluster, 0);
}

TEST(Factory, SchemeNamesAndPasses) {
  EXPECT_STREQ(scheme_name(Scheme::kOp), "OP");
  EXPECT_STREQ(scheme_name(Scheme::kOneCluster), "one-cluster");
  EXPECT_STREQ(scheme_name(Scheme::kVc), "VC");
  EXPECT_TRUE(needs_software_pass(Scheme::kOb));
  EXPECT_TRUE(needs_software_pass(Scheme::kRhop));
  EXPECT_TRUE(needs_software_pass(Scheme::kVc));
  EXPECT_FALSE(needs_software_pass(Scheme::kOp));
  EXPECT_FALSE(needs_software_pass(Scheme::kOneCluster));
  EXPECT_FALSE(needs_software_pass(Scheme::kParallelOp));
}

TEST(Factory, InstantiatesEveryScheme) {
  const MachineConfig cfg = two_clusters();
  for (const Scheme s :
       {Scheme::kOp, Scheme::kOneCluster, Scheme::kOb, Scheme::kRhop,
        Scheme::kVc, Scheme::kParallelOp}) {
    const auto policy = make_policy(s, cfg);
    ASSERT_NE(policy, nullptr);
    EXPECT_FALSE(policy->name().empty());
  }
}

}  // namespace
}  // namespace vcsteer::steer
