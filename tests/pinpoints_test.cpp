// Tests for the PinPoints-style representative-interval selection.
#include <gtest/gtest.h>

#include <cmath>

#include "workload/generator.hpp"
#include "workload/pinpoints.hpp"
#include "workload/profiles.hpp"

namespace vcsteer::workload {
namespace {

SimBudget small_budget() {
  SimBudget budget;
  budget.total_uops = 160'000;
  budget.interval_uops = 10'000;
  budget.max_phases = 4;
  return budget;
}

TEST(PinPoints, WeightsSumToOne) {
  const GeneratedWorkload wl = generate(*find_profile("164.gzip-1"));
  TraceSource trace(wl);
  const auto points =
      select_pinpoints(trace, wl.program.num_blocks(), small_budget(), 42);
  ASSERT_FALSE(points.empty());
  double total = 0;
  for (const auto& p : points) total += p.weight;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(PinPoints, PointsWithinAnalysedPrefixAndSorted) {
  const GeneratedWorkload wl = generate(*find_profile("186.crafty"));
  TraceSource trace(wl);
  const SimBudget budget = small_budget();
  const auto points =
      select_pinpoints(trace, wl.program.num_blocks(), budget, 42);
  std::uint64_t prev_start = 0;
  bool first = true;
  for (const auto& p : points) {
    EXPECT_EQ(p.length, budget.interval_uops);
    EXPECT_LE(p.start_uop + p.length, budget.total_uops);
    EXPECT_EQ(p.start_uop % budget.interval_uops, 0u);
    if (!first) {
      EXPECT_GT(p.start_uop, prev_start);
    }
    prev_start = p.start_uop;
    first = false;
    EXPECT_GT(p.weight, 0.0);
  }
}

TEST(PinPoints, AtMostMaxPhases) {
  const GeneratedWorkload wl = generate(*find_profile("176.gcc-1"));
  TraceSource trace(wl);
  SimBudget budget = small_budget();
  budget.max_phases = 3;
  const auto points =
      select_pinpoints(trace, wl.program.num_blocks(), budget, 7);
  EXPECT_LE(points.size(), 3u);
  EXPECT_GE(points.size(), 1u);
}

TEST(PinPoints, DeterministicGivenSeed) {
  const GeneratedWorkload wl = generate(*find_profile("171.swim"));
  TraceSource trace(wl);
  const auto a =
      select_pinpoints(trace, wl.program.num_blocks(), small_budget(), 9);
  const auto b =
      select_pinpoints(trace, wl.program.num_blocks(), small_budget(), 9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_uop, b[i].start_uop);
    EXPECT_DOUBLE_EQ(a[i].weight, b[i].weight);
  }
}

TEST(PinPoints, DetectsDistinctPhases) {
  // A profile with multiple phases and phase-affine blocks should produce
  // more than one cluster.
  const WorkloadProfile& p = *find_profile("164.gzip-1");
  ASSERT_GE(p.phase_count, 2u);
  const GeneratedWorkload wl = generate(p);
  TraceSource trace(wl);
  SimBudget budget;
  // Two full phase rounds, intervals well under a phase length.
  budget.interval_uops = std::uint64_t{p.phase_length_kuops} * 1024 / 2;
  budget.total_uops = budget.interval_uops * 4 * p.phase_count;
  budget.max_phases = 10;
  const auto points =
      select_pinpoints(trace, wl.program.num_blocks(), budget, 3);
  EXPECT_GE(points.size(), 2u);
}

TEST(PinPoints, SinglePhaseWhenMaxIsOne) {
  const GeneratedWorkload wl = generate(*find_profile("181.mcf"));
  TraceSource trace(wl);
  SimBudget budget = small_budget();
  budget.max_phases = 1;
  const auto points =
      select_pinpoints(trace, wl.program.num_blocks(), budget, 5);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].weight, 1.0);
}

TEST(PinPoints, CollectIntervalMatchesDirectWalk) {
  const GeneratedWorkload wl = generate(*find_profile("186.crafty"));
  TraceSource trace(wl);
  SimPoint point;
  point.start_uop = 30'000;
  point.length = 1'000;
  const auto collected = collect_interval(trace, point);
  ASSERT_EQ(collected.size(), 1'000u);

  TraceSource fresh(wl);
  fresh.skip(30'000);
  const auto direct = fresh.take(1'000);
  for (std::size_t i = 0; i < collected.size(); ++i) {
    EXPECT_EQ(collected[i].uop, direct[i].uop);
    EXPECT_EQ(collected[i].addr, direct[i].addr);
  }
}

TEST(PinPoints, RejectsDegenerateOptions) {
  const GeneratedWorkload wl = generate(*find_profile("181.mcf"));
  TraceSource trace(wl);
  SimBudget budget;
  budget.total_uops = 100;
  budget.interval_uops = 1000;  // interval larger than trace
  EXPECT_DEATH(
      select_pinpoints(trace, wl.program.num_blocks(), budget, 1), "CHECK");
}

}  // namespace
}  // namespace vcsteer::workload
