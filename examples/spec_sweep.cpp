// spec_sweep: characterise the 40 SPEC CPU2000 stand-in workloads.
//
// For every trace profile: generate the program, run PinPoints, simulate
// under the OP baseline, and print a one-line characterisation (IPC, cache
// behaviour, phases, instruction mix). Useful for understanding *why* a
// steering scheme wins or loses on a given trace in Figures 5-7.
#include "../bench/bench_main.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace vcsteer;
  const bench::Options opt = bench::parse_args(argc, argv, "spec_sweep");

  exec::SweepGrid grid;
  const auto profiles = opt.profiles();
  grid.profiles.assign(profiles.begin(), profiles.end());
  grid.machines = {MachineConfig::two_cluster()};
  grid.schemes = {harness::SchemeSpec{steer::Scheme::kOp, 0}};
  grid.budget = opt.budget();

  bench::Output out(opt);
  const exec::SweepResult sweep = out.run(grid);

  stats::Table table("SPEC CPU2000 stand-in workloads under OP, 2 clusters");
  table.set_columns({"trace", "suite", "IPC", "L1 miss %", "L2 miss %",
                     "phases", "copies/kuop", "stalls/kuop"});
  for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
    const harness::RunResult& r = sweep.at(t, 0);
    const mem::HierarchyStats& m = r.last_interval.memory;
    const double l1_acc = static_cast<double>(m.l1_hits + m.l1_misses);
    const double l2_acc = static_cast<double>(m.l2_hits + m.l2_misses);
    table.row()
        .add(grid.profiles[t].name)
        .add(std::string(grid.profiles[t].is_fp ? "FP" : "INT"))
        .add(r.ipc, 3)
        .add(l1_acc > 0 ? 100.0 * m.l1_misses / l1_acc : 0.0, 1)
        .add(l2_acc > 0 ? 100.0 * m.l2_misses / l2_acc : 0.0, 1)
        .add(r.num_points)
        .add(r.copies_per_kuop, 1)
        .add(r.alloc_stalls_per_kuop + r.policy_stalls_per_kuop, 1);
  }

  out.add(table);
  return out.finish();
}
