// Figure 7 reproduction: per-trace slowdown (%) of OB, RHOP, VC(4->4) and
// VC(2->4) relative to the hardware-only baseline (OP) on the 4-cluster
// machine, plus the Figure 7(c) averages and the §5.4 copy comparison
// between the two VC configurations. The grid, the figure's tables and the
// paper's numbers are bench::kFig7 and bench::copy_excess
// (paper_figures.hpp).
#include "bench_main.hpp"
#include "paper_figures.hpp"

int main(int argc, char** argv) {
  using namespace vcsteer;
  const bench::Options opt = bench::parse_args(argc, argv, "fig7_fourcluster");
  const exec::SweepGrid grid = bench::kFig7.grid(opt.profiles(), opt.budget());

  bench::Output out(opt);
  const exec::SweepResult sweep = out.run(grid);
  for (const stats::Table& table : bench::kFig7.tables(grid.profiles, sweep)) {
    out.add(table);
  }

  const bench::CopyExcess copies = bench::copy_excess(sweep);
  stats::Table copy_table(bench::copy_excess_title());
  copy_table.set_columns(
      {"VC(4->4) copies/kuop", "VC(2->4) copies/kuop", "excess (%)"});
  copy_table.row()
      .add(copies.vc44_per_kuop, 1)
      .add(copies.vc24_per_kuop, 1)
      .add(copies.excess_pct, 1);
  out.add(copy_table);
  return out.finish();
}
