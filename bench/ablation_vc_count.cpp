// Ablation: number of virtual clusters (paper §5.1 and §5.4).
//
// The paper sets #VCs = 2 on the 2-cluster machine because more VCs do not
// help ("such configuration achieves almost the same performance as the
// configurations with the increased number of virtual clusters"), and shows
// on 4 clusters that VC(2->4) clearly beats VC(4->4) because fine VC
// partitions spread critical dependent pairs over independently-mapped VCs.
// This bench sweeps the VC count on both machines over a workload subset.
#include <vector>

#include "bench_main.hpp"
#include "stats/table.hpp"
#include "workload/profiles.hpp"

int main(int argc, char** argv) {
  using namespace vcsteer;
  const bench::Options opt = bench::parse_args(argc, argv, "ablation_vc_count");

  const std::vector<std::uint32_t> vc_counts = {1, 2, 3, 4, 6};

  exec::SweepGrid grid;
  const auto profiles = workload::smoke_profiles();
  grid.profiles.assign(profiles.begin(), profiles.end());
  for (const std::uint32_t clusters : {2u, 4u}) {
    MachineConfig machine = MachineConfig::two_cluster();
    machine.num_clusters = clusters;
    grid.machines.push_back(machine);
  }
  grid.schemes = {harness::SchemeSpec{steer::Scheme::kOp, 0}};
  for (const std::uint32_t vcs : vc_counts) {
    grid.schemes.push_back(harness::SchemeSpec{steer::Scheme::kVc, vcs});
  }
  grid.budget = opt.budget();

  bench::Output out(opt);
  const exec::SweepResult sweep = out.run(grid);

  for (std::size_t m = 0; m < grid.machines.size(); ++m) {
    stats::Table table(
        "VC-count sweep on the " +
        std::to_string(grid.machines[m].num_clusters) +
        "-cluster machine (slowdown vs OP %, copies/kuop)");
    table.set_columns({"trace", "VC(1)", "VC(2)", "VC(3)", "VC(4)", "VC(6)",
                       "cp(1)", "cp(2)", "cp(3)", "cp(4)", "cp(6)"});
    for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
      const double base_ipc = sweep.at(t, m, 0).ipc;
      table.row().add(grid.profiles[t].name);
      for (std::size_t k = 0; k < vc_counts.size(); ++k) {
        table.add(stats::slowdown_pct(base_ipc, sweep.at(t, m, k + 1).ipc), 2);
      }
      for (std::size_t k = 0; k < vc_counts.size(); ++k) {
        table.add(sweep.at(t, m, k + 1).copies_per_kuop, 0);
      }
    }
    out.add(table);
  }
  return out.finish();
}
