// Ablation: stall-over-steer in the occupancy-aware baseline ([15], [24]).
// The OP policy stalls the front-end when the operand cluster's queue is
// full unless another cluster is below the occupancy threshold. Sweeping
// the threshold moves OP between "always stall" (threshold -> 0, never
// divert) and "always steer" (threshold -> 1, divert whenever anything is
// free) and reproduces the papers' observation that some stalling beats
// blind steering.
#include <vector>

#include "bench_main.hpp"
#include "stats/table.hpp"
#include "workload/profiles.hpp"

int main(int argc, char** argv) {
  using namespace vcsteer;
  const bench::Options opt = bench::parse_args(argc, argv, "ablation_stall");

  const std::vector<double> thresholds = {0.05, 0.25, 0.50, 0.75, 1.00};

  exec::SweepGrid grid;
  const auto profiles = workload::smoke_profiles();
  grid.profiles.assign(profiles.begin(), profiles.end());
  for (const double threshold : thresholds) {
    MachineConfig machine = MachineConfig::two_cluster();
    machine.op_occupancy_threshold = threshold;
    grid.machines.push_back(machine);
  }
  grid.schemes = {harness::SchemeSpec{steer::Scheme::kOp, 0}};
  grid.budget = opt.budget();

  bench::Output out(opt);
  const exec::SweepResult sweep = out.run(grid);

  stats::Table table(
      "OP stall-over-steer threshold sweep (2 clusters): avg IPC and stalls");
  table.set_columns({"threshold", "avg IPC", "policy stalls/kuop",
                     "alloc stalls/kuop", "copies/kuop"});
  const auto n = static_cast<double>(grid.profiles.size());
  for (std::size_t m = 0; m < grid.machines.size(); ++m) {
    double ipc = 0, policy_stalls = 0, alloc = 0, copies = 0;
    for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
      const harness::RunResult& r = sweep.at(t, m, 0);
      ipc += r.ipc;
      policy_stalls += r.policy_stalls_per_kuop;
      alloc += r.alloc_stalls_per_kuop;
      copies += r.copies_per_kuop;
    }
    table.row()
        .add(thresholds[m], 2)
        .add(ipc / n, 3)
        .add(policy_stalls / n, 1)
        .add(alloc / n, 1)
        .add(copies / n, 1);
  }

  out.add(table);
  return out.finish();
}
