// Regression guard: the headline shapes of the reproduction, asserted with
// generous margins so legitimate model changes don't trip them, but tight
// enough that a broken scheme (or broken determinism) fails loudly. Sweeps
// the Fig 5 and Fig 7 grids of bench/paper_figures.hpp over the full
// 40-trace suite at the smoke budget.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "../bench/paper_figures.hpp"

namespace vcsteer {
namespace {

/// `fig`'s grid over the full suite at the smoke budget, swept once.
exec::SweepResult suite_sweep(const bench::SlowdownFigure& fig) {
  exec::SweepOptions opt;
  opt.jobs = exec::default_jobs();  // results are jobs-invariant
  return exec::run_sweep(
      fig.grid(workload::all_profiles(), harness::SimBudget::smoke()), opt);
}

const exec::SweepResult& fig5_sweep() {
  static const exec::SweepResult sweep = suite_sweep(bench::kFig5);
  return sweep;
}

const exec::SweepResult& fig7_sweep() {
  static const exec::SweepResult sweep = suite_sweep(bench::kFig7);
  return sweep;
}

/// Fig 5(c)'s CPU2000 averages: one-cluster, OB, RHOP, VC slowdowns vs OP.
const std::array<double, 4>& fig5_averages() {
  static const bench::SlowdownAverages averages =
      bench::kFig5.averages(workload::all_profiles(), fig5_sweep());
  return averages.all;
}

TEST(Regression, OneClusterClearlyWorst) {
  const auto& [one_cluster, ob, rhop, vc] = fig5_averages();
  EXPECT_GT(one_cluster, 8.0);   // paper: 12.19
  EXPECT_LT(one_cluster, 30.0);  // but not absurd
  EXPECT_GT(one_cluster, ob);
  EXPECT_GT(one_cluster, rhop);
  EXPECT_GT(one_cluster, vc);
}

TEST(Regression, SoftwareOnlySchemesPayMeasurably) {
  const auto& [one_cluster, ob, rhop, vc] = fig5_averages();
  EXPECT_GT(ob, 2.0);  // paper: 6.50
  EXPECT_LT(ob, 15.0);
  EXPECT_GT(rhop, -1.0);  // paper: 5.40 (see ROADMAP item 2)
  EXPECT_LT(rhop, 12.0);
}

TEST(Regression, HybridStaysWithinReachOfHardwareOnly) {
  const auto& [one_cluster, ob, rhop, vc] = fig5_averages();
  // Paper: 2.62% average slowdown; we accept anything inside [-1.5, 4].
  EXPECT_GT(vc, -1.5);
  EXPECT_LT(vc, 4.0);
  // And the headline ordering: hybrid beats both software-only schemes.
  EXPECT_LT(vc, ob);
  EXPECT_LT(vc, rhop + 1.0);
}

TEST(Regression, FourClusterCopyExcessOfFineVcPartitions) {
  // §5.4: VC(4->4) generates ~28% more copies than VC(2->4).
  const bench::CopyExcess copies = bench::copy_excess(fig7_sweep());
  ASSERT_GT(copies.vc24_per_kuop, 0.0);
  EXPECT_GT(copies.excess_pct, 10.0);  // paper: +28%, measured ~+29%
  EXPECT_LT(copies.excess_pct, 60.0);
}

/// The (c) table's CPU2000 AVG column is `averages` at 2 decimals.
void expect_cpu2000_column(const stats::Table& table,
                           const std::array<double, 4>& averages) {
  ASSERT_EQ(table.num_rows(), averages.size());
  for (std::size_t s = 0; s < averages.size(); ++s) {
    char cell[32];
    std::snprintf(cell, sizeof(cell), "%.2f", averages[s]);
    EXPECT_EQ(table.cell(s, 3), cell) << table.cell(s, 0);
  }
}

TEST(Regression, PrintedTablesCarryThePaperAndTheAverages) {
  const auto traces = workload::all_profiles();
  const std::vector<stats::Table> fig5 =
      bench::kFig5.tables(traces, fig5_sweep());
  ASSERT_EQ(fig5.size(), 3u);
  EXPECT_EQ(fig5[2].title(),
            "Fig 5(c): average slowdown vs OP, 2 clusters (%)"
            "  [paper: one-cluster 12.19, OB 6.50, RHOP 5.40, VC 2.62]");
  expect_cpu2000_column(fig5[2], fig5_averages());

  const std::vector<stats::Table> fig7 =
      bench::kFig7.tables(traces, fig7_sweep());
  ASSERT_EQ(fig7.size(), 3u);
  EXPECT_EQ(fig7[2].title(),
            "Fig 7(c): average slowdown vs OP, 4 clusters (%)"
            "  [paper: OB 12.45, RHOP 12.69, VC(4->4) 12.96, VC(2->4) 3.64]");
  expect_cpu2000_column(fig7[2],
                        bench::kFig7.averages(traces, fig7_sweep()).all);

  EXPECT_EQ(bench::copy_excess_title(),
            "Sec 5.4: copy micro-ops, VC(4->4) vs VC(2->4)"
            "  [paper: +28% on average]");
}

}  // namespace
}  // namespace vcsteer
