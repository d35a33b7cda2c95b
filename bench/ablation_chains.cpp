// Ablation: chain granularity of the hybrid scheme. The chain leader is the
// hardware's only remap point (paper Figure 3/4): marking leaders on every
// tiny chain turns VC into a per-op hardware balancer (more remaps, least
// locality), while requiring very long chains freezes the mapping (fewest
// remaps, worst balance).
#include <vector>

#include "bench_main.hpp"
#include "stats/table.hpp"
#include "workload/profiles.hpp"

int main(int argc, char** argv) {
  using namespace vcsteer;
  const bench::Options opt = bench::parse_args(argc, argv, "ablation_chains");

  const std::vector<std::uint32_t> min_chains = {1, 2, 3, 6, 12, 48};

  exec::SweepGrid grid;
  const auto profiles = workload::smoke_profiles();
  grid.profiles.assign(profiles.begin(), profiles.end());
  grid.machines = {MachineConfig::two_cluster()};
  grid.schemes = {harness::SchemeSpec{steer::Scheme::kOp, 0}};
  for (const std::uint32_t min_chain : min_chains) {
    harness::SchemeSpec spec{steer::Scheme::kVc, 2};
    spec.vc_min_leader_chain = min_chain;
    grid.schemes.push_back(spec);
  }
  grid.budget = opt.budget();

  bench::Output out(opt);
  const exec::SweepResult sweep = out.run(grid);

  stats::Table table(
      "VC chain-granularity sweep (2 clusters, 2 VCs): min chain size for a "
      "leader mark");
  table.set_columns({"min chain", "avg slowdown vs OP (%)", "copies/kuop",
                     "alloc stalls/kuop"});
  const auto n = static_cast<double>(grid.profiles.size());
  for (std::size_t k = 0; k < min_chains.size(); ++k) {
    double slow = 0, copies = 0, alloc = 0;
    for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
      const harness::RunResult& r = sweep.at(t, k + 1);
      slow += stats::slowdown_pct(sweep.at(t, 0).ipc, r.ipc);
      copies += r.copies_per_kuop;
      alloc += r.alloc_stalls_per_kuop;
    }
    table.row()
        .add(std::uint64_t{min_chains[k]})
        .add(slow / n, 2)
        .add(copies / n, 1)
        .add(alloc / n, 1);
  }

  out.add(table);
  return out.finish();
}
