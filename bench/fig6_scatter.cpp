// Figure 6 reproduction: per-trace scatter of speedup (x) against copy
// reduction (a-series) and workload-balance improvement (b-series) for
// VC vs OB (a.1/b.1), VC vs RHOP (a.2/b.2) and VC vs OP (a.3/b.3) on the
// 2-cluster machine.
//
// Definitions follow §5.3 of the paper:
//   speedup(%)               = IPC_VC / IPC_other - 1
//   copy reduction(%)        = 1 - copies_VC / copies_other
//   balance improvement(%)   = 1 - alloc_stalls_VC / alloc_stalls_other
// (workload balance improvement "is computed as the total reduction of the
// allocation stalls in the issue queues").
//
// Expected shapes (see EXPERIMENTS.md): VC improves balance vs OB for most
// traces; VC beats RHOP mainly via fewer/cheaper cut dependences while RHOP
// balances better; VC generates *more* copies than OP but balances better.
#include <string>
#include <vector>

#include "bench_main.hpp"
#include "stats/table.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace vcsteer;

double reduction_pct(double vc, double other) {
  if (other <= 0.0) return 0.0;
  return (1.0 - vc / other) * 100.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_args(argc, argv, "fig6_scatter");

  exec::SweepGrid grid;
  const auto profiles =
      opt.smoke ? workload::smoke_profiles() : workload::all_profiles();
  grid.profiles.assign(profiles.begin(), profiles.end());
  grid.machines = {MachineConfig::two_cluster()};
  grid.schemes = {
      harness::SchemeSpec{steer::Scheme::kVc, 2},
      harness::SchemeSpec{steer::Scheme::kOb, 0},
      harness::SchemeSpec{steer::Scheme::kRhop, 0},
      harness::SchemeSpec{steer::Scheme::kOp, 0},
  };
  grid.budget = opt.budget();

  bench::Output out(opt);
  const exec::SweepResult sweep = out.run(grid);

  struct Comparison {
    const char* name;
    std::size_t scheme;  // index into grid.schemes
    stats::Table table;
    int copy_better = 0, balance_better = 0, rows = 0;
  };
  std::vector<Comparison> comparisons;
  comparisons.push_back(
      {"OB", 1, stats::Table("Fig 6(a.1,b.1): VC vs OB, per trace"), 0, 0, 0});
  comparisons.push_back(
      {"RHOP", 2, stats::Table("Fig 6(a.2,b.2): VC vs RHOP, per trace"), 0, 0,
       0});
  comparisons.push_back(
      {"OP", 3, stats::Table("Fig 6(a.3,b.3): VC vs OP, per trace"), 0, 0, 0});
  for (auto& c : comparisons) {
    c.table.set_columns({"trace", "speedup (%)", "copy reduction (%)",
                         "balance improvement (%)"});
  }

  for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
    const harness::RunResult& vc = sweep.at(t, 0);
    for (auto& c : comparisons) {
      const harness::RunResult& other = sweep.at(t, c.scheme);
      const double speedup = stats::speedup_pct(vc.ipc, other.ipc);
      const double copy_red =
          reduction_pct(vc.copies_per_kuop, other.copies_per_kuop);
      const double bal_imp = reduction_pct(vc.alloc_stalls_per_kuop,
                                           other.alloc_stalls_per_kuop);
      c.table.row()
          .add(grid.profiles[t].name)
          .add(speedup, 2)
          .add(copy_red, 2)
          .add(bal_imp, 2);
      c.copy_better += copy_red > 0;
      c.balance_better += bal_imp > 0;
      ++c.rows;
    }
  }

  stats::Table summary("Fig 6 summary: fraction of traces where VC wins");
  summary.set_columns(
      {"comparison", "copy reduction > 0", "balance improvement > 0"});
  for (auto& c : comparisons) {
    summary.row()
        .add(std::string("VC vs ") + c.name)
        .add(std::to_string(c.copy_better) + "/" + std::to_string(c.rows))
        .add(std::to_string(c.balance_better) + "/" + std::to_string(c.rows));
  }

  for (auto& c : comparisons) out.add(c.table);
  out.add(summary);
  return out.finish();
}
