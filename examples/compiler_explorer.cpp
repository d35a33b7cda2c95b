// compiler_explorer: inspect what the software side of the hybrid scheme
// does to a program — regions, criticality, virtual-cluster assignment,
// chains and chain leaders (paper Figures 2 and 3).
//
//   $ ./examples/compiler_explorer [trace-name] [num-vcs 1-254]
//
// Prints the annotated micro-ops of the first few regions, one line per
// micro-op, plus the pass statistics, and contrasts the OB and RHOP static
// assignments for the same code. Every pass runs with the settings
// harness::pass_options gives it on the two-cluster Table 2 machine, so the
// OB/RH column shows what Fig 5 runs. A malformed or out-of-range VC count,
// or an extra argument, prints the usage and exits 2.
#include <cstdio>
#include <variant>

#include "cli_args.hpp"
#include "compiler/region.hpp"
#include "harness/experiment.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

int main(int argc, char** argv) {
  using namespace vcsteer;

  const char* trace_name = argc > 1 ? argv[1] : "164.gzip-1";
  // VC ids stay below isa::SteerHint::kNoVc (255).
  const std::optional<std::uint32_t> num_vcs =
      argc > 2 ? cli::parse_in_range(argv[2], 1, 254) : 2;
  if (argc > 3 || !num_vcs) {
    std::fprintf(stderr,
                 "usage: compiler_explorer [trace-name] [num-vcs 1-254]\n");
    return 2;
  }
  const workload::WorkloadProfile* profile =
      workload::find_profile(trace_name);
  if (profile == nullptr) {
    std::fprintf(stderr, "unknown trace '%s'\n", trace_name);
    return 1;
  }

  workload::GeneratedWorkload wl = workload::generate(*profile);
  std::printf("program '%s': %zu blocks, %zu micro-ops\n",
              wl.program.name().c_str(), wl.program.num_blocks(),
              wl.program.num_uops());

  // Run all three software passes; VC last so its hints survive for the
  // per-instruction dump (we stash the static assignments first).
  const MachineConfig machine = MachineConfig::two_cluster();
  const auto options = [&machine](steer::Scheme scheme, std::uint32_t vcs) {
    return harness::pass_options({scheme, vcs}, machine);
  };
  compiler::assign_ob(wl.program, std::get<compiler::ObOptions>(
                                      options(steer::Scheme::kOb, 0)));
  std::vector<std::int8_t> ob_cluster(wl.program.num_uops());
  for (prog::UopId u = 0; u < wl.program.num_uops(); ++u) {
    ob_cluster[u] = wl.program.uop(u).hint.static_cluster;
  }

  wl.program.clear_hints();
  const compiler::RhopPassStats rhop_stats = compiler::assign_rhop(
      wl.program,
      std::get<compiler::RhopOptions>(options(steer::Scheme::kRhop, 0)));
  std::vector<std::int8_t> rhop_cluster(wl.program.num_uops());
  for (prog::UopId u = 0; u < wl.program.num_uops(); ++u) {
    rhop_cluster[u] = wl.program.uop(u).hint.static_cluster;
  }

  wl.program.clear_hints();
  const compiler::VcPassStats vc_stats = compiler::assign_virtual_clusters(
      wl.program,
      std::get<compiler::VcOptions>(options(steer::Scheme::kVc, *num_vcs)));

  const auto regions = compiler::form_regions(wl.program);
  std::printf("regions: %zu (superblocks along expected paths)\n\n",
              regions.size());

  std::size_t printed_regions = 0;
  for (const compiler::Region& region : regions) {
    if (printed_regions++ == 2) break;
    const compiler::RegionDdg ddg =
        compiler::build_region_ddg(wl.program, region);
    std::printf("--- region of %zu block(s), critical length %.0f ---\n",
                region.blocks.size(), ddg.crit.critical_length);
    std::printf("%-4s %-26s %5s %6s %5s  %s\n", "node", "micro-op", "crit",
                "slack", "OB/RH", "chain");
    for (std::size_t i = 0; i < ddg.uop_of.size(); ++i) {
      const prog::UopId uid = ddg.uop_of[i];
      const isa::MicroOp& uop = wl.program.uop(uid);
      std::printf("%-4zu %-26s %5.0f %6.1f  %d/%d   %s\n", i,
                  isa::to_string(uop).c_str(),
                  ddg.crit.criticality(static_cast<graph::NodeId>(i)),
                  ddg.crit.slack(static_cast<graph::NodeId>(i)),
                  ob_cluster[uid], rhop_cluster[uid],
                  uop.hint.chain_leader ? "<= chain leader" : "");
    }
    std::printf("\n");
  }

  std::printf("VC pass:   %llu instructions, %llu chains (avg length %.1f), "
              "%llu leaders, %llu singleton chains\n",
              (unsigned long long)vc_stats.instructions,
              (unsigned long long)vc_stats.chains, vc_stats.avg_chain_length,
              (unsigned long long)vc_stats.leaders,
              (unsigned long long)vc_stats.singleton_chains);
  std::printf("RHOP pass: cut weight %.1f, worst block imbalance %.2f\n",
              rhop_stats.total_cut_weight, rhop_stats.worst_imbalance);
  return 0;
}
