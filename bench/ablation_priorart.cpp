// Ablation: prior-art hardware heuristics. The paper's related work (§3.1)
// cites the MOD-N instruction-distribution heuristics [3] as earlier
// hardware-only steering; this bench positions MOD1/MOD3/MOD8 between
// one-cluster (no distribution) and the dependence-based OP on the
// 2-cluster machine, with the hybrid VC for reference.
//
// The MOD-N policies are not SchemeSpecs; they ride the sweep as custom
// policy factories (exec::SweepScheme with a tag), which is the same path
// user-defined policies from examples/custom_policy take.
#include <memory>

#include "bench_main.hpp"
#include "stats/table.hpp"
#include "steer/mod_policy.hpp"
#include "workload/profiles.hpp"

int main(int argc, char** argv) {
  using namespace vcsteer;
  const bench::Options opt = bench::parse_args(argc, argv, "ablation_priorart");

  exec::SweepGrid grid;
  const auto profiles = workload::smoke_profiles();
  grid.profiles.assign(profiles.begin(), profiles.end());
  grid.machines = {MachineConfig::two_cluster()};
  grid.schemes = {
      harness::SchemeSpec{steer::Scheme::kOp, 0},
      harness::SchemeSpec{steer::Scheme::kOneCluster, 0},
      harness::SchemeSpec{steer::Scheme::kVc, 2},
  };
  for (const std::uint32_t n : {1u, 3u, 8u}) {
    grid.schemes.emplace_back(
        "MOD" + std::to_string(n), [n](const MachineConfig&) {
          return std::make_unique<steer::ModNPolicy>(n);
        });
  }
  grid.budget = opt.budget();

  bench::Output out(opt);
  const exec::SweepResult sweep = out.run(grid);

  stats::Table table(
      "Prior-art hardware heuristics, 2 clusters: slowdown vs OP (%)");
  table.set_columns({"trace", "one-cluster", "MOD1", "MOD3", "MOD8", "VC",
                     "MOD3 copies/kuop"});
  for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
    const double op_ipc = sweep.at(t, 0).ipc;
    table.row()
        .add(grid.profiles[t].name)
        .add(stats::slowdown_pct(op_ipc, sweep.at(t, 1).ipc), 2)
        .add(stats::slowdown_pct(op_ipc, sweep.at(t, 3).ipc), 2)
        .add(stats::slowdown_pct(op_ipc, sweep.at(t, 4).ipc), 2)
        .add(stats::slowdown_pct(op_ipc, sweep.at(t, 5).ipc), 2)
        .add(stats::slowdown_pct(op_ipc, sweep.at(t, 2).ipc), 2)
        .add(sweep.at(t, 4).copies_per_kuop, 1);
  }

  out.add(table);
  return out.finish();
}
