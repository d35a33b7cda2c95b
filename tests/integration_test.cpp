// End-to-end integration tests: the full paper methodology (workload ->
// software pass -> PinPoints -> clustered-core simulation) across steering
// schemes, with shape assertions matching the paper's headline claims.
// Sizes are kept small (SimBudget::smoke) so the suite stays fast.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "stats/table.hpp"
#include "workload/profiles.hpp"

namespace vcsteer {
namespace {

using harness::RunResult;
using harness::SchemeRequest;
using harness::SchemeSpec;
using harness::SimBudget;
using harness::TraceExperiment;

/// Runs all Table 3 configurations over the smoke workload subset on the
/// given machine; cached per machine for the whole test suite.
const std::map<std::string, std::vector<RunResult>>& results_for(
    std::uint32_t clusters) {
  static std::map<std::uint32_t,
                  std::map<std::string, std::vector<RunResult>>>
      cache;
  auto it = cache.find(clusters);
  if (it != cache.end()) return it->second;

  MachineConfig machine = MachineConfig::two_cluster();
  machine.num_clusters = clusters;
  const std::vector<SchemeSpec> specs = {
      {steer::Scheme::kOp, 0},   {steer::Scheme::kOneCluster, 0},
      {steer::Scheme::kOb, 0},   {steer::Scheme::kRhop, 0},
      {steer::Scheme::kVc, 2},   {steer::Scheme::kParallelOp, 0},
  };
  const std::vector<SchemeRequest> requests(specs.begin(), specs.end());
  std::map<std::string, std::vector<RunResult>> results;
  for (const auto& profile : workload::smoke_profiles()) {
    TraceExperiment experiment(profile, machine, SimBudget::smoke());
    std::vector<RunResult> runs = experiment.evaluate(requests);
    for (std::size_t s = 0; s < specs.size(); ++s) {
      results[specs[s].label(machine)].push_back(std::move(runs[s]));
    }
  }
  return cache[clusters] = results;
}

double avg_slowdown(const std::map<std::string, std::vector<RunResult>>& all,
                    const std::string& scheme) {
  const auto& base = all.at("OP");
  const auto& runs = all.at(scheme);
  std::vector<double> slows;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    slows.push_back(stats::slowdown_pct(base[i].ipc, runs[i].ipc));
  }
  return stats::mean(slows);
}

double avg_metric(const std::map<std::string, std::vector<RunResult>>& all,
                  const std::string& scheme,
                  double RunResult::* member) {
  std::vector<double> xs;
  for (const auto& r : all.at(scheme)) xs.push_back(r.*member);
  return stats::mean(xs);
}

TEST(EndToEnd, EverySchemeCompletesWithSaneIpc) {
  const auto& all = results_for(2);
  for (const auto& [scheme, runs] : all) {
    for (const RunResult& r : runs) {
      EXPECT_GT(r.ipc, 0.01) << scheme << " on " << r.trace;
      EXPECT_LT(r.ipc, 6.0) << scheme << " on " << r.trace;
      EXPECT_GT(r.committed_uops, 0u);
    }
  }
}

TEST(EndToEnd, OneClusterGeneratesNoCopies) {
  for (const RunResult& r : results_for(2).at("one-cluster")) {
    EXPECT_DOUBLE_EQ(r.copies_per_kuop, 0.0) << r.trace;
  }
}

TEST(EndToEnd, OneClusterIsClearlyWorstOnAverage) {
  const auto& all = results_for(2);
  const double one = avg_slowdown(all, "one-cluster");
  EXPECT_GT(one, 5.0);
  EXPECT_GT(one, avg_slowdown(all, "VC(2->2)"));
  EXPECT_GT(one, avg_slowdown(all, "OB"));
  EXPECT_GT(one, avg_slowdown(all, "RHOP"));
}

TEST(EndToEnd, HybridIsCloseToHardwareOnly) {
  // The paper's headline: VC within ~2.6% of OP on 2 clusters.
  const double vc = avg_slowdown(results_for(2), "VC(2->2)");
  EXPECT_LT(vc, 4.0);
}

TEST(EndToEnd, HybridBeatsSoftwareOnlyOnAverage) {
  const auto& all = results_for(2);
  const double vc = avg_slowdown(all, "VC(2->2)");
  EXPECT_LT(vc, avg_slowdown(all, "OB"));
  EXPECT_LT(vc, avg_slowdown(all, "RHOP"));
}

TEST(EndToEnd, VcGeneratesMoreCopiesThanOpButBalancesBetter) {
  // Figure 6(a.3)/(b.3): VC trades copies for balance against OP.
  const auto& all = results_for(2);
  EXPECT_GT(avg_metric(all, "VC(2->2)", &RunResult::copies_per_kuop),
            avg_metric(all, "OP", &RunResult::copies_per_kuop));
}

TEST(EndToEnd, VcBeatsObOnBalanceAndPerformance) {
  // Figure 6(b.1): VC improves workload balance over OB (fewer allocation
  // stalls), which is where OB's slowdown comes from in our reproduction
  // (the copy axis of Fig. 6(a.1) does not reproduce — see ROADMAP
  // item 2).
  const auto& all = results_for(2);
  EXPECT_GT(avg_metric(all, "OB", &RunResult::alloc_stalls_per_kuop),
            avg_metric(all, "VC(2->2)", &RunResult::alloc_stalls_per_kuop));
}

TEST(EndToEnd, RhopBalancesBetterButCopiesLessEffectively) {
  // Figure 6(a.2)/(b.2): VC cuts fewer dependences than a balanced
  // partitioner cuts; RHOP pays fewer allocation stalls.
  const auto& all = results_for(2);
  EXPECT_LT(avg_metric(all, "RHOP", &RunResult::copies_per_kuop),
            avg_metric(all, "OB", &RunResult::copies_per_kuop));
}

TEST(EndToEnd, ParallelSteeringWorseThanSequential) {
  // §2.1: the renaming-style parallel implementation of dependence-based
  // steering loses to the sequential one.
  const auto& all = results_for(2);
  EXPECT_GT(avg_metric(all, "OP-parallel", &RunResult::copies_per_kuop),
            avg_metric(all, "OP", &RunResult::copies_per_kuop));
  EXPECT_GE(avg_slowdown(all, "OP-parallel"), -0.5);
}

TEST(EndToEnd, FourClusterMachineRunsAllSchemes) {
  const auto& all = results_for(4);
  for (const auto& [scheme, runs] : all) {
    for (const RunResult& r : runs) {
      EXPECT_GT(r.ipc, 0.01) << scheme << " on " << r.trace;
    }
  }
}

TEST(EndToEnd, FourClusterOneClusterStillWorst) {
  const auto& all = results_for(4);
  EXPECT_GT(avg_slowdown(all, "one-cluster"),
            avg_slowdown(all, "VC(2->4)"));
}

TEST(EndToEnd, SimulatorInvariantsHoldForEveryScheme) {
  for (const std::uint32_t clusters : {2u, 4u}) {
    const auto& all = results_for(clusters);
    for (const auto& [scheme, runs] : all) {
      for (const RunResult& r : runs) {
        const sim::SimStats& s = r.last_interval;
        // Everything dispatched was committed (traces run to completion).
        EXPECT_EQ(s.dispatched_uops, s.committed_uops)
            << scheme << " on " << r.trace;
        // Per-cluster dispatch counts account for every micro-op.
        std::uint64_t sum = 0;
        for (std::uint32_t c = 0; c < kMaxClusters; ++c) {
          if (c >= clusters) {
            EXPECT_EQ(s.dispatched_to[c], 0u) << scheme << " cluster " << c;
          }
          sum += s.dispatched_to[c];
        }
        EXPECT_EQ(sum, s.dispatched_uops) << scheme << " on " << r.trace;
        // Memory accounting: every load/store hit somewhere.
        EXPECT_EQ(s.memory.l1_hits + s.memory.l1_misses,
                  s.memory.loads + s.memory.stores)
            << scheme << " on " << r.trace;
        EXPECT_EQ(s.memory.l2_hits + s.memory.l2_misses, s.memory.l1_misses)
            << scheme << " on " << r.trace;
      }
    }
  }
}

TEST(EndToEnd, CopiesOnlyWhenMultipleClustersUsed) {
  for (const auto& [scheme, runs] : results_for(2)) {
    for (const RunResult& r : runs) {
      const sim::SimStats& s = r.last_interval;
      std::uint32_t used = 0;
      for (const auto d : s.dispatched_to) used += d > 0;
      if (used <= 1) {
        EXPECT_EQ(s.copies_generated, 0u) << scheme << " on " << r.trace;
      }
    }
  }
}

TEST(EndToEnd, ResultsAreDeterministic) {
  // Re-running one configuration must reproduce the cached result exactly.
  const auto& all = results_for(2);
  const RunResult& cached = all.at("RHOP").front();
  const workload::WorkloadProfile* profile =
      workload::find_profile(cached.trace);
  ASSERT_NE(profile, nullptr);
  TraceExperiment experiment(*profile, MachineConfig::two_cluster(),
                             SimBudget::smoke());
  const std::vector<SchemeRequest> rhop = {
      SchemeSpec{steer::Scheme::kRhop, 0}};
  const RunResult fresh = experiment.evaluate(rhop)[0];
  EXPECT_DOUBLE_EQ(fresh.ipc, cached.ipc);
  EXPECT_EQ(fresh.cycles, cached.cycles);
}

}  // namespace
}  // namespace vcsteer
