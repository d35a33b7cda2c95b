// Tests for the experiment harness: scheme labels, annotation dispatch,
// policy construction, the trace replay, and PinPoints-weighted
// aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "workload/pinpoints.hpp"
#include "workload/profiles.hpp"
#include "workload/trace.hpp"

namespace vcsteer::harness {
namespace {

const workload::WorkloadProfile& smoke_profile() {
  const workload::WorkloadProfile* p = workload::find_profile("186.crafty");
  EXPECT_NE(p, nullptr);
  return *p;
}

// One request through the evaluation entry point, singleton.
RunResult run_one(TraceExperiment& experiment, const SchemeRequest& request) {
  const std::vector<SchemeRequest> requests = {request};
  return experiment.evaluate(requests)[0];
}

TEST(SchemeSpec, Labels) {
  const MachineConfig m2 = MachineConfig::two_cluster();
  const MachineConfig m4 = MachineConfig::four_cluster();
  EXPECT_EQ((SchemeSpec{steer::Scheme::kOp, 0}).label(m2), "OP");
  EXPECT_EQ((SchemeSpec{steer::Scheme::kOneCluster, 0}).label(m2),
            "one-cluster");
  EXPECT_EQ((SchemeSpec{steer::Scheme::kVc, 0}).label(m2), "VC(2->2)");
  EXPECT_EQ((SchemeSpec{steer::Scheme::kVc, 0}).label(m4), "VC(4->4)");
  EXPECT_EQ((SchemeSpec{steer::Scheme::kVc, 2}).label(m4), "VC(2->4)");
}

// Pins the communication-cost values annotate_for_scheme derives from each
// topology kind: the scalar fallback is the nearest-neighbour matrix entry
// (link_latency + 1 on every fabric — the pre-topology estimate, so flat
// runs stay bit-identical), and the per-pair matrix reflects the directed
// hop counts of the active topology.
TEST(Annotate, CommCostMatrixDerivesFromTopology) {
  auto vc_matrix = [](Topology kind, std::uint32_t link_latency,
                      std::uint32_t n) {
    MachineConfig m = MachineConfig::four_cluster();
    m.interconnect.kind = kind;
    m.interconnect.link_latency = link_latency;
    return comm_cost_matrix(
        m, n, /*per_hop=*/static_cast<double>(link_latency), /*fixed=*/1.0);
  };

  // Uniform single-hop fabrics: every off-diagonal pair costs latency + 1.
  for (const Topology kind :
       {Topology::kIdeal, Topology::kBus, Topology::kCrossbar}) {
    const std::vector<double> m = vc_matrix(kind, 2, 4);
    for (std::uint32_t i = 0; i < 4; ++i) {
      for (std::uint32_t j = 0; j < 4; ++j) {
        EXPECT_DOUBLE_EQ(m[i * 4 + j], i == j ? 0.0 : 3.0)
            << topology_name(kind);
      }
    }
    EXPECT_DOUBLE_EQ(min_comm_cost(m, 4), 3.0);
  }

  // Ring, latency 2: directed hops, 2 * hops + 1 per pair.
  const std::vector<double> ring = vc_matrix(Topology::kRing, 2, 4);
  EXPECT_DOUBLE_EQ(ring[0 * 4 + 1], 3.0);   // 1 hop forward
  EXPECT_DOUBLE_EQ(ring[0 * 4 + 2], 5.0);   // 2 hops
  EXPECT_DOUBLE_EQ(ring[0 * 4 + 3], 7.0);   // 3 hops
  EXPECT_DOUBLE_EQ(ring[3 * 4 + 0], 3.0);   // wrap-around is 1 hop
  EXPECT_DOUBLE_EQ(ring[1 * 4 + 0], 7.0);   // backwards = the long way
  EXPECT_DOUBLE_EQ(ring[2 * 4 + 2], 0.0);
  // The scalar the flat pass uses is the nearest-neighbour entry — exactly
  // the historical link_latency + 1, even on the non-uniform ring.
  EXPECT_DOUBLE_EQ(min_comm_cost(ring, 4), 3.0);

  // VC(2->4): two virtual clusters mapped onto clusters 0 and 1.
  const std::vector<double> vc24 = vc_matrix(Topology::kRing, 1, 2);
  EXPECT_DOUBLE_EQ(vc24[0 * 2 + 1], 2.0);  // d(0,1) = 1 hop
  EXPECT_DOUBLE_EQ(vc24[1 * 2 + 0], 4.0);  // d(1,0) = 3 hops
  EXPECT_DOUBLE_EQ(min_comm_cost(vc24, 2), 2.0);

  // More placement targets than clusters: aliased targets (0 and 4 both
  // map to cluster 0) are still estimated at least one hop apart.
  MachineConfig m = MachineConfig::four_cluster();
  const std::vector<double> wide = comm_cost_matrix(m, 5, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(wide[0 * 5 + 4], 2.0);
  EXPECT_DOUBLE_EQ(wide[4 * 5 + 0], 2.0);
}

TEST(Annotate, TopologyAwareKnobHandsThePassesTheMatrix) {
  // Flat and aware annotation agree on the ideal fabric (the matrix is the
  // scalar replicated), so the knob cannot perturb Table-2 results; on the
  // ring they may legitimately place differently.
  workload::GeneratedWorkload flat_wl = workload::generate(smoke_profile());
  workload::GeneratedWorkload aware_wl = workload::generate(smoke_profile());
  MachineConfig ideal = MachineConfig::four_cluster();
  MachineConfig aware_ideal = ideal;
  aware_ideal.steer.topology_aware = true;
  annotate_for_scheme(flat_wl.program, {steer::Scheme::kVc, 2}, ideal);
  annotate_for_scheme(aware_wl.program, {steer::Scheme::kVc, 2}, aware_ideal);
  for (prog::UopId u = 0; u < flat_wl.program.num_uops(); ++u) {
    ASSERT_EQ(flat_wl.program.uop(u).hint.vc_id,
              aware_wl.program.uop(u).hint.vc_id);
    ASSERT_EQ(flat_wl.program.uop(u).hint.chain_leader,
              aware_wl.program.uop(u).hint.chain_leader);
  }
}

TEST(Annotate, VcSchemeSetsVcHints) {
  workload::GeneratedWorkload wl = workload::generate(smoke_profile());
  annotate_for_scheme(wl.program, {steer::Scheme::kVc, 2},
                      MachineConfig::two_cluster());
  bool any_leader = false;
  for (prog::UopId u = 0; u < wl.program.num_uops(); ++u) {
    EXPECT_TRUE(wl.program.uop(u).hint.has_vc());
    EXPECT_FALSE(wl.program.uop(u).hint.has_static_cluster());
    any_leader |= wl.program.uop(u).hint.chain_leader;
  }
  EXPECT_TRUE(any_leader);
}

TEST(Annotate, StaticSchemesSetClusters) {
  workload::GeneratedWorkload wl = workload::generate(smoke_profile());
  for (const auto scheme : {steer::Scheme::kOb, steer::Scheme::kRhop}) {
    annotate_for_scheme(wl.program, {scheme, 0}, MachineConfig::two_cluster());
    for (prog::UopId u = 0; u < wl.program.num_uops(); ++u) {
      EXPECT_TRUE(wl.program.uop(u).hint.has_static_cluster());
      EXPECT_FALSE(wl.program.uop(u).hint.has_vc());
    }
  }
}

TEST(Annotate, HardwareSchemesClearHints) {
  workload::GeneratedWorkload wl = workload::generate(smoke_profile());
  annotate_for_scheme(wl.program, {steer::Scheme::kVc, 2},
                      MachineConfig::two_cluster());
  annotate_for_scheme(wl.program, {steer::Scheme::kOp, 0},
                      MachineConfig::two_cluster());
  for (prog::UopId u = 0; u < wl.program.num_uops(); ++u) {
    EXPECT_FALSE(wl.program.uop(u).hint.has_vc());
    EXPECT_FALSE(wl.program.uop(u).hint.has_static_cluster());
  }
}

TEST(PolicyFactory, VcRespectsRequestedVcCount) {
  const MachineConfig m4 = MachineConfig::four_cluster();
  const auto p24 = policy_for_scheme({steer::Scheme::kVc, 2}, m4);
  EXPECT_EQ(p24->name(), "VC(2)");
  const auto p44 = policy_for_scheme({steer::Scheme::kVc, 0}, m4);
  EXPECT_EQ(p44->name(), "VC(4)");
}

TEST(Experiment, RunsAndAggregates) {
  TraceExperiment experiment(smoke_profile(), MachineConfig::two_cluster(),
                             SimBudget::smoke());
  EXPECT_FALSE(experiment.simpoints().empty());
  double weight = 0;
  for (const auto& p : experiment.simpoints()) weight += p.weight;
  EXPECT_NEAR(weight, 1.0, 1e-9);

  const RunResult result = run_one(experiment, SchemeSpec{steer::Scheme::kOp, 0});
  EXPECT_EQ(result.trace, "186.crafty");
  EXPECT_EQ(result.scheme, "OP");
  EXPECT_GT(result.ipc, 0.1);
  EXPECT_LT(result.ipc, 6.0);
  EXPECT_GT(result.cycles, 0u);
  EXPECT_GT(result.committed_uops, 0u);
}

// The constructor replays the trace once, walking forward from point to
// point. Each point's interval and warm addresses must equal what a replay
// from uop 0 up to that point gives, and every warm list must be a prefix
// view of one stream. 171.swim at the smoke budget has a point at uop 0,
// whose prefix is empty.
TEST(Experiment, OneReplayMatchesPerPointReplay) {
  const std::pair<const char*, SimBudget> cases[] = {
      {"179.art-1", SimBudget{}},
      {"181.mcf", SimBudget{}},
      {"171.swim", SimBudget::smoke()}};
  for (const auto& [name, budget] : cases) {
    SCOPED_TRACE(name);
    const workload::WorkloadProfile* profile = workload::find_profile(name);
    ASSERT_NE(profile, nullptr);
    const TraceExperiment experiment(*profile, MachineConfig::two_cluster(),
                                     budget);
    const prog::Program& program = experiment.workload().program;
    const std::vector<workload::SimPoint>& points = experiment.simpoints();
    ASSERT_EQ(experiment.intervals().size(), points.size());
    ASSERT_EQ(experiment.warm_addrs().size(), points.size());
    if (std::string(name) == "171.swim") {
      EXPECT_EQ(points.front().start_uop, 0u);
    }
    for (std::size_t p = 0; p < points.size(); ++p) {
      SCOPED_TRACE("point " + std::to_string(p));
      workload::TraceSource trace(experiment.workload());
      std::vector<std::uint32_t> warm;
      for (std::uint64_t u = 0; u < points[p].start_uop; ++u) {
        const workload::TraceEntry e = trace.next();
        if (program.uop(e.uop).is_mem()) warm.push_back(e.addr);
      }
      const std::span<const std::uint32_t> view = experiment.warm_addrs()[p];
      EXPECT_EQ(view.data(), experiment.warm_addrs().back().data());
      ASSERT_EQ(view.size(), warm.size());
      EXPECT_EQ(std::mismatch(view.begin(), view.end(), warm.begin()).first -
                    view.begin(),
                static_cast<std::ptrdiff_t>(view.size()))
          << "first differing warm address";

      const std::vector<workload::TraceEntry> replayed =
          workload::collect_interval(trace, points[p]);
      const std::vector<workload::TraceEntry>& interval =
          experiment.intervals()[p];
      ASSERT_EQ(interval.size(), replayed.size());
      const auto same = [](const workload::TraceEntry& a,
                           const workload::TraceEntry& b) {
        return a.uop == b.uop && a.addr == b.addr;
      };
      EXPECT_EQ(std::mismatch(interval.begin(), interval.end(),
                              replayed.begin(), same)
                        .first -
                    interval.begin(),
                static_cast<std::ptrdiff_t>(interval.size()))
          << "first differing interval entry";
    }
  }
}

TEST(Experiment, DeterministicAcrossInstances) {
  const SimBudget budget = SimBudget::smoke();
  const MachineConfig machine = MachineConfig::two_cluster();
  TraceExperiment a(smoke_profile(), machine, budget);
  TraceExperiment b(smoke_profile(), machine, budget);
  const RunResult ra = run_one(a, SchemeSpec{steer::Scheme::kVc, 2});
  const RunResult rb = run_one(b, SchemeSpec{steer::Scheme::kVc, 2});
  EXPECT_DOUBLE_EQ(ra.ipc, rb.ipc);
  EXPECT_DOUBLE_EQ(ra.copies_per_kuop, rb.copies_per_kuop);
  EXPECT_EQ(ra.cycles, rb.cycles);
}

TEST(Experiment, RerunSameSchemeIsIdempotent) {
  TraceExperiment experiment(smoke_profile(), MachineConfig::two_cluster(),
                             SimBudget::smoke());
  const RunResult first = run_one(experiment, SchemeSpec{steer::Scheme::kRhop, 0});
  run_one(experiment, SchemeSpec{steer::Scheme::kOp, 0});  // interleave
  const RunResult second =
      run_one(experiment, SchemeSpec{steer::Scheme::kRhop, 0});
  EXPECT_DOUBLE_EQ(first.ipc, second.ipc);
  EXPECT_EQ(first.cycles, second.cycles);
}

TEST(Experiment, CustomPolicyRequestMatchesBuiltinPath) {
  TraceExperiment experiment(smoke_profile(), MachineConfig::two_cluster(),
                             SimBudget::smoke());
  // kOneCluster needs no annotations, so routing its policy through the
  // custom-request path must reproduce the built-in path exactly.
  const RunResult builtin =
      run_one(experiment, SchemeSpec{steer::Scheme::kOneCluster, 0});
  const SchemeRequest custom_request(
      "custom-one", [](const MachineConfig& m) {
        return policy_for_scheme({steer::Scheme::kOneCluster, 0}, m);
      });
  const RunResult custom = run_one(experiment, custom_request);
  EXPECT_EQ(custom.scheme, "custom-one");
  EXPECT_EQ(custom.trace, builtin.trace);
  EXPECT_EQ(custom.cycles, builtin.cycles);
  EXPECT_DOUBLE_EQ(custom.ipc, builtin.ipc);
  EXPECT_EQ(custom.num_points, builtin.num_points);
}

TEST(Experiment, CustomPolicyRequestClearsHints) {
  TraceExperiment experiment(smoke_profile(), MachineConfig::two_cluster(),
                             SimBudget::smoke());
  const SchemeRequest one("one", [](const MachineConfig& m) {
    return policy_for_scheme({steer::Scheme::kOneCluster, 0}, m);
  });
  const RunResult clean = run_one(experiment, one);
  run_one(experiment, SchemeSpec{steer::Scheme::kVc, 2});  // leaves VC hints
  const RunResult after = run_one(experiment, one);
  EXPECT_EQ(clean.cycles, after.cycles);
  EXPECT_DOUBLE_EQ(clean.ipc, after.ipc);
}

TEST(Experiment, OneClusterUsesOnlyClusterZero) {
  TraceExperiment experiment(smoke_profile(), MachineConfig::two_cluster(),
                             SimBudget::smoke());
  const RunResult r =
      run_one(experiment, SchemeSpec{steer::Scheme::kOneCluster, 0});
  EXPECT_DOUBLE_EQ(r.copies_per_kuop, 0.0);
  EXPECT_EQ(r.last_interval.dispatched_to[1], 0u);
  EXPECT_GT(r.last_interval.dispatched_to[0], 0u);
}

}  // namespace
}  // namespace vcsteer::harness
