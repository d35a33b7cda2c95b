// Ablation: interconnect topology x cluster count x steering scheme.
//
// Table 2 fixes the copy fabric at an ideal 1-cycle point-to-point link;
// this sweep replaces it with contention-modeled topologies (shared bus,
// unidirectional ring, per-pair crossbar — src/sim/interconnect.hpp, where
// a topology is the route of links a copy claims) on the 2- and 4-cluster
// machines, plus the classic link-latency sweep on the ideal fabric.
// Copy-heavy schemes degrade fastest as the fabric gets slower or narrower;
// the ring separates further on 4 clusters where hop counts become
// non-uniform.
//
// The final block re-runs the 4-cluster machines with
// steer.topology_aware on (policies weigh candidate clusters by hop cost
// plus observed link contention; software passes use the per-pair topology
// cost matrix) and quantifies the win per topology against the flat
// policies. The win concentrates on the ring, where distances are
// non-uniform; on uniform fabrics only the cost-based divert/remap
// tiebreaks differ, so the gap stays near zero.
#include <utility>
#include <vector>

#include "bench_main.hpp"
#include "stats/table.hpp"
#include "workload/profiles.hpp"

int main(int argc, char** argv) {
  using namespace vcsteer;
  const bench::Options opt =
      bench::parse_args(argc, argv, "ablation_interconnect");

  const std::vector<Topology> topologies = {Topology::kIdeal, Topology::kBus,
                                            Topology::kRing,
                                            Topology::kCrossbar};
  const std::vector<std::uint32_t> cluster_counts = {2, 4};
  // The 1-cycle point of the latency sweep *is* the 2-cluster ideal machine
  // of the topology block (grid index 0); only the slower links are added.
  const std::vector<std::uint32_t> link_latencies = {2, 4, 8};

  // Machine axis, in grid order: first topology x cluster-count at the
  // Table 2 link (1 cycle, 1 copy/link/cycle), then the link-latency sweep
  // on the ideal fabric (the pre-topology ablation, unchanged).
  exec::SweepGrid grid;
  const auto profiles = workload::smoke_profiles();
  grid.profiles.assign(profiles.begin(), profiles.end());
  for (const std::uint32_t clusters : cluster_counts) {
    for (const Topology topo : topologies) {
      MachineConfig machine = clusters == 2 ? MachineConfig::two_cluster()
                                            : MachineConfig::four_cluster();
      machine.interconnect.kind = topo;
      grid.machines.push_back(machine);
    }
  }
  const std::size_t latency_base = grid.machines.size();
  for (const std::uint32_t link : link_latencies) {
    MachineConfig machine = MachineConfig::two_cluster();
    machine.interconnect.link_latency = link;
    grid.machines.push_back(machine);
  }
  // Topology-aware block: the 4-cluster machines again with the steering
  // knob on; paired with the flat 4-cluster block for the comparison table.
  const std::size_t aware_base = grid.machines.size();
  for (const Topology topo : topologies) {
    MachineConfig machine = MachineConfig::four_cluster();
    machine.interconnect.kind = topo;
    machine.steer.topology_aware = true;
    grid.machines.push_back(machine);
  }
  grid.schemes = {
      harness::SchemeSpec{steer::Scheme::kOp, 0},
      harness::SchemeSpec{steer::Scheme::kOb, 0},
      harness::SchemeSpec{steer::Scheme::kRhop, 0},
      harness::SchemeSpec{steer::Scheme::kVc, 2},
  };
  grid.budget = opt.budget();

  bench::Output out(opt);
  const exec::SweepResult sweep = out.run(grid);

  const auto n = static_cast<double>(grid.profiles.size());
  const auto num_topos = topologies.size();
  for (std::size_t ci = 0; ci < cluster_counts.size(); ++ci) {
    stats::Table table("Interconnect topology sweep, " +
                       std::to_string(cluster_counts[ci]) +
                       " clusters: avg slowdown vs ideal@OP (%), and avg "
                       "copy-link contention (cycles/kuop)");
    table.set_columns(
        {"topology", "OP", "OB", "RHOP", "VC", "contention/kuop"});
    for (std::size_t ti = 0; ti < num_topos; ++ti) {
      const std::size_t m = ci * num_topos + ti;
      table.row().add(std::string(topology_name(topologies[ti])));
      double contention = 0;
      for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
        double sum = 0;
        for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
          // Baseline: OP on this cluster count's ideal-fabric machine.
          sum += stats::slowdown_pct(sweep.at(t, ci * num_topos, 0).ipc,
                                     sweep.at(t, m, s).ipc);
          contention += sweep.at(t, m, s).link_contention_per_kuop;
        }
        table.add(sum / n, 2);
      }
      table.add(contention / (n * static_cast<double>(grid.schemes.size())),
                2);
    }
    out.add(table);
  }

  stats::Table link_table(
      "Link-latency sweep, 2 clusters, ideal fabric: avg slowdown vs "
      "OP@1cycle (%)");
  link_table.set_columns({"link cycles", "OP", "OB", "RHOP", "VC"});
  std::vector<std::pair<std::uint32_t, std::size_t>> latency_rows = {{1, 0}};
  for (std::size_t li = 0; li < link_latencies.size(); ++li) {
    latency_rows.emplace_back(link_latencies[li], latency_base + li);
  }
  for (const auto& [link, m] : latency_rows) {
    link_table.row().add(std::uint64_t{link});
    for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
      double sum = 0;
      for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
        sum += stats::slowdown_pct(sweep.at(t, 0, 0).ipc,
                                   sweep.at(t, m, s).ipc);
      }
      link_table.add(sum / n, 2);
    }
  }
  out.add(link_table);

  // Flat vs topology-aware on the 4-cluster machines (machine index
  // num_topos + ti pairs with aware_base + ti, same topology).
  stats::Table aware_table(
      "Topology-aware steering, 4 clusters: avg IPC gain vs flat (%), and "
      "avg avoided-contended steers (/kuop)");
  aware_table.set_columns(
      {"topology", "OP", "OB", "RHOP", "VC", "avoided/kuop"});
  stats::Table hops_table(
      "Topology-aware steering, 4 clusters: avg copy-hops/kuop, flat vs "
      "aware");
  hops_table.set_columns(
      {"topology", "OP flat", "OP aware", "VC flat", "VC aware"});
  for (std::size_t ti = 0; ti < num_topos; ++ti) {
    const std::size_t flat_m = num_topos + ti;
    const std::size_t aware_m = aware_base + ti;
    aware_table.row().add(std::string(topology_name(topologies[ti])));
    double avoided = 0;
    for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
      double gain = 0;
      for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
        gain += stats::speedup_pct(sweep.at(t, aware_m, s).ipc,
                                   sweep.at(t, flat_m, s).ipc);
        avoided += sweep.at(t, aware_m, s).avoided_contended_per_kuop;
      }
      aware_table.add(gain / n, 2);
    }
    aware_table.add(avoided / (n * static_cast<double>(grid.schemes.size())),
                    2);
    hops_table.row().add(std::string(topology_name(topologies[ti])));
    double hops[4] = {};
    for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
      hops[0] += sweep.at(t, flat_m, 0).copy_hops_per_kuop;
      hops[1] += sweep.at(t, aware_m, 0).copy_hops_per_kuop;
      hops[2] += sweep.at(t, flat_m, 3).copy_hops_per_kuop;
      hops[3] += sweep.at(t, aware_m, 3).copy_hops_per_kuop;
    }
    for (const double h : hops) hops_table.add(h / n, 1);
  }
  out.add(aware_table);
  out.add(hops_table);
  return out.finish();
}
