// Ablation (paper §2.1): sequential vs parallel implementation of the
// dependence-based hardware steering. The parallel (register-renaming-
// style) implementation decides a whole decode bundle from cycle-start
// state; the sequential one sees every earlier decision. The paper argues
// the sequential version is needed for performance but is too complex to
// implement at cycle time — this ablation quantifies the performance gap
// the hybrid scheme closes without the serialization.
#include <vector>

#include "bench_main.hpp"
#include "stats/table.hpp"
#include "workload/profiles.hpp"

int main(int argc, char** argv) {
  using namespace vcsteer;
  const bench::Options opt = bench::parse_args(argc, argv, "ablation_seqpar");

  exec::SweepGrid grid;
  const auto profiles = workload::smoke_profiles();
  grid.profiles.assign(profiles.begin(), profiles.end());
  grid.machines = {MachineConfig::two_cluster()};
  grid.schemes = {
      harness::SchemeSpec{steer::Scheme::kOp, 0},
      harness::SchemeSpec{steer::Scheme::kParallelOp, 0},
      harness::SchemeSpec{steer::Scheme::kVc, 2},
  };
  grid.budget = opt.budget();

  bench::Output out(opt);
  const exec::SweepResult sweep = out.run(grid);

  stats::Table table(
      "Sequential vs parallel dependence-based steering (2 clusters)");
  table.set_columns({"trace", "seq IPC", "par IPC", "par slowdown (%)",
                     "seq copies/kuop", "par copies/kuop",
                     "VC slowdown vs seq (%)"});
  std::vector<double> slowdowns, vc_slowdowns;
  for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
    const harness::RunResult& seq = sweep.at(t, 0);
    const harness::RunResult& par = sweep.at(t, 1);
    const harness::RunResult& vc = sweep.at(t, 2);
    const double slow = stats::slowdown_pct(seq.ipc, par.ipc);
    const double vc_slow = stats::slowdown_pct(seq.ipc, vc.ipc);
    slowdowns.push_back(slow);
    vc_slowdowns.push_back(vc_slow);
    table.row()
        .add(grid.profiles[t].name)
        .add(seq.ipc, 3)
        .add(par.ipc, 3)
        .add(slow, 2)
        .add(seq.copies_per_kuop, 1)
        .add(par.copies_per_kuop, 1)
        .add(vc_slow, 2);
  }

  stats::Table avg_table(
      "Averages: VC achieves sequential-class steering without the "
      "serialized per-bundle decision");
  avg_table.set_columns(
      {"parallel vs sequential slowdown (%)", "VC vs sequential slowdown (%)"});
  avg_table.row().add(stats::mean(slowdowns), 2).add(stats::mean(vc_slowdowns), 2);

  out.add(table);
  out.add(avg_table);
  return out.finish();
}
