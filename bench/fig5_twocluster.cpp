// Figure 5 reproduction: per-trace slowdown (%) of one-cluster, OB, RHOP and
// VC relative to the hardware-only occupancy-aware baseline (OP) on the
// 2-cluster machine, plus the Figure 5(c) INT/FP/CPU2000 averages.
//
// Paper reference averages (Fig. 5c): one-cluster 12.19, OB 6.50, RHOP 5.40,
// VC 2.62 (% slowdown vs OP). We reproduce the *shape*: the ordering and
// rough magnitudes, not the absolute SPEC numbers (see EXPERIMENTS.md).
#include <vector>

#include "bench_main.hpp"
#include "stats/table.hpp"
#include "workload/profiles.hpp"

int main(int argc, char** argv) {
  using namespace vcsteer;
  const bench::Options opt = bench::parse_args(argc, argv, "fig5_twocluster");

  exec::SweepGrid grid;
  const auto profiles =
      opt.smoke ? workload::smoke_profiles() : workload::all_profiles();
  grid.profiles.assign(profiles.begin(), profiles.end());
  grid.machines = {MachineConfig::two_cluster()};
  grid.schemes = {
      harness::SchemeSpec{steer::Scheme::kOp, 0},
      harness::SchemeSpec{steer::Scheme::kOneCluster, 0},
      harness::SchemeSpec{steer::Scheme::kOb, 0},
      harness::SchemeSpec{steer::Scheme::kRhop, 0},
      harness::SchemeSpec{steer::Scheme::kVc, 2},  // paper: 2 VCs on 2 clusters
  };
  grid.budget = opt.budget();

  bench::Output out(opt);
  const exec::SweepResult sweep = out.run(grid);

  stats::Table int_table("Fig 5(a): SPECint 2000 slowdown vs OP, 2 clusters (%)");
  stats::Table fp_table("Fig 5(b): SPECfp 2000 slowdown vs OP, 2 clusters (%)");
  for (auto* t : {&int_table, &fp_table}) {
    t->set_columns({"trace", "one-cluster", "OB", "RHOP", "VC"});
  }
  std::vector<double> int_avg[4], fp_avg[4], all_avg[4];
  for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
    const bool is_fp = grid.profiles[t].is_fp;
    const double base_ipc = sweep.at(t, 0).ipc;
    stats::Table& table = is_fp ? fp_table : int_table;
    table.row().add(grid.profiles[t].name);
    for (int s = 0; s < 4; ++s) {
      const double slow =
          stats::slowdown_pct(base_ipc, sweep.at(t, s + 1).ipc);
      table.add(slow, 2);
      (is_fp ? fp_avg : int_avg)[s].push_back(slow);
      all_avg[s].push_back(slow);
    }
  }

  stats::Table avg_table("Fig 5(c): average slowdown vs OP, 2 clusters (%)"
                         "  [paper: one-cluster 12.19, OB 6.50, RHOP 5.40, VC 2.62]");
  avg_table.set_columns({"config", "INT AVG", "FP AVG", "CPU2000 AVG"});
  const char* names[4] = {"one-cluster", "OB", "RHOP", "VC"};
  for (int s = 0; s < 4; ++s) {
    avg_table.row()
        .add(std::string(names[s]))
        .add(stats::mean(int_avg[s]), 2)
        .add(stats::mean(fp_avg[s]), 2)
        .add(stats::mean(all_avg[s]), 2);
  }

  out.add(int_table);
  out.add(fp_table);
  out.add(avg_table);
  return out.finish();
}
