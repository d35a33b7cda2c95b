// Figure 7 reproduction: per-trace slowdown (%) of OB, RHOP, VC(4->4) and
// VC(2->4) relative to the hardware-only baseline (OP) on the 4-cluster
// machine, plus the Figure 7(c) averages and the §5.4 copy comparison
// between the two VC configurations.
//
// Paper reference averages (Fig. 7c): OB 12.45, RHOP 12.69, VC(4->4) 12.96,
// VC(2->4) 3.64 (% slowdown vs OP). §5.4: VC(4->4) generates ~28% more
// copies than VC(2->4) because pairs of critical dependent instructions get
// spread across virtual clusters that the hardware may map apart.
#include <vector>

#include "bench_main.hpp"
#include "stats/table.hpp"
#include "workload/profiles.hpp"

int main(int argc, char** argv) {
  using namespace vcsteer;
  const bench::Options opt = bench::parse_args(argc, argv, "fig7_fourcluster");

  exec::SweepGrid grid;
  const auto profiles =
      opt.smoke ? workload::smoke_profiles() : workload::all_profiles();
  grid.profiles.assign(profiles.begin(), profiles.end());
  grid.machines = {MachineConfig::four_cluster()};
  grid.schemes = {
      harness::SchemeSpec{steer::Scheme::kOp, 0},
      harness::SchemeSpec{steer::Scheme::kOb, 0},
      harness::SchemeSpec{steer::Scheme::kRhop, 0},
      harness::SchemeSpec{steer::Scheme::kVc, 4},
      harness::SchemeSpec{steer::Scheme::kVc, 2},
  };
  grid.budget = opt.budget();

  bench::Output out(opt);
  const exec::SweepResult sweep = out.run(grid);

  stats::Table int_table("Fig 7(a): SPECint 2000 slowdown vs OP, 4 clusters (%)");
  stats::Table fp_table("Fig 7(b): SPECfp 2000 slowdown vs OP, 4 clusters (%)");
  for (auto* t : {&int_table, &fp_table}) {
    t->set_columns({"trace", "OB", "RHOP", "VC(4->4)", "VC(2->4)"});
  }
  std::vector<double> int_avg[4], fp_avg[4], all_avg[4];
  double copies44 = 0.0, copies24 = 0.0;
  for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
    const bool is_fp = grid.profiles[t].is_fp;
    const double base_ipc = sweep.at(t, 0).ipc;
    stats::Table& table = is_fp ? fp_table : int_table;
    table.row().add(grid.profiles[t].name);
    for (int s = 0; s < 4; ++s) {
      const harness::RunResult& r = sweep.at(t, s + 1);
      const double slow = stats::slowdown_pct(base_ipc, r.ipc);
      table.add(slow, 2);
      (is_fp ? fp_avg : int_avg)[s].push_back(slow);
      all_avg[s].push_back(slow);
      if (s == 2) copies44 += r.copies_per_kuop;
      if (s == 3) copies24 += r.copies_per_kuop;
    }
  }

  stats::Table avg_table(
      "Fig 7(c): average slowdown vs OP, 4 clusters (%)"
      "  [paper: OB 12.45, RHOP 12.69, VC(4->4) 12.96, VC(2->4) 3.64]");
  avg_table.set_columns({"config", "INT AVG", "FP AVG", "CPU2000 AVG"});
  const char* names[4] = {"OB", "RHOP", "VC(4->4)", "VC(2->4)"};
  for (int s = 0; s < 4; ++s) {
    avg_table.row()
        .add(std::string(names[s]))
        .add(stats::mean(int_avg[s]), 2)
        .add(stats::mean(fp_avg[s]), 2)
        .add(stats::mean(all_avg[s]), 2);
  }

  const auto num_traces = static_cast<double>(grid.profiles.size());
  stats::Table copy_table(
      "Sec 5.4: copy micro-ops, VC(4->4) vs VC(2->4)  [paper: +28% on average]");
  copy_table.set_columns(
      {"VC(4->4) copies/kuop", "VC(2->4) copies/kuop", "excess (%)"});
  copy_table.row()
      .add(copies44 / num_traces, 1)
      .add(copies24 / num_traces, 1)
      .add(copies24 > 0 ? (copies44 / copies24 - 1.0) * 100.0 : 0.0, 1);

  out.add(int_table);
  out.add(fp_table);
  out.add(avg_table);
  out.add(copy_table);
  return out.finish();
}
