// Figure 5 reproduction: per-trace slowdown (%) of one-cluster, OB, RHOP and
// VC relative to the hardware-only occupancy-aware baseline (OP) on the
// 2-cluster machine, plus the Figure 5(c) INT/FP/CPU2000 averages. The grid,
// the tables and the paper's averages are bench::kFig5 (paper_figures.hpp).
#include "bench_main.hpp"
#include "paper_figures.hpp"

int main(int argc, char** argv) {
  using namespace vcsteer;
  const bench::Options opt = bench::parse_args(argc, argv, "fig5_twocluster");
  const exec::SweepGrid grid = bench::kFig5.grid(opt.profiles(), opt.budget());

  bench::Output out(opt);
  const exec::SweepResult sweep = out.run(grid);
  for (const stats::Table& table : bench::kFig5.tables(grid.profiles, sweep)) {
    out.add(table);
  }
  return out.finish();
}
