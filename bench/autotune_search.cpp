// Autotune: model-pruned search over a design grid no exhaustive bench
// could afford to simulate.
//
// The machine axis crosses cluster count x interconnect topology x IQ size
// x link latency x link bandwidth x issue width — 576 machines, x5 steering
// schemes = 2880 configurations per trace, an order of magnitude beyond the
// largest figure sweep (ablation_interconnect's 552 grid points). Running
// it exhaustively is exactly what the analytical critical-path model
// (src/model/) exists to avoid: unless the caller overrides --prune-model,
// the bench defaults to a top-8 frontier, so the cycle simulator only ever
// sees a fraction of a percent of the grid while every point still carries
// an estimate (tagged source == "model" in the JSON output).
//
// The --summary-json's "model" section reports the estimated/pruned
// counters and the model-vs-sim rank agreement over the simulated
// frontier; scripts/ci_gates.sh's model gate asserts on them.
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "bench_main.hpp"
#include "stats/table.hpp"
#include "workload/profiles.hpp"

int main(int argc, char** argv) {
  using namespace vcsteer;
  bench::Options opt = bench::parse_args(argc, argv, "autotune_search");
  // This bench is the pruned-search consumer: default to a top-8 frontier
  // unless the caller picked their own K.
  if (opt.prune_model == 0) opt.prune_model = 8;

  // Trace axis: the search ranks machine configurations, so a small trace
  // set suffices — the model scores every (machine, scheme) on all of it.
  const auto smoke = workload::smoke_profiles();
  exec::SweepGrid grid;
  if (opt.smoke) {
    grid.profiles.assign(smoke.begin(), smoke.begin() + 2);
  } else {
    grid.profiles.assign(smoke.begin(), smoke.end());
  }

  // Machine axis: every combination below, in nesting order. The axis
  // descriptor is kept parallel to grid.machines for the report tables.
  const std::vector<std::uint32_t> cluster_counts = {2, 4};
  const std::vector<Topology> topologies = {Topology::kIdeal, Topology::kBus,
                                            Topology::kRing,
                                            Topology::kCrossbar};
  const std::vector<std::uint32_t> iq_sizes = {16, 32, 48, 64};
  const std::vector<std::uint32_t> link_latencies = {1, 2, 4};
  const std::vector<std::uint32_t> link_bandwidths = {1, 2, ~0u};
  const std::vector<std::uint32_t> issue_widths = {2, 3};
  struct AxisPoint {
    std::uint32_t clusters, iq, link, bw, width;
    Topology topo;
  };
  std::vector<AxisPoint> axis;
  for (const std::uint32_t clusters : cluster_counts) {
    for (const Topology topo : topologies) {
      for (const std::uint32_t iq : iq_sizes) {
        for (const std::uint32_t link : link_latencies) {
          for (const std::uint32_t bw : link_bandwidths) {
            for (const std::uint32_t width : issue_widths) {
              MachineConfig machine = clusters == 2
                                          ? MachineConfig::two_cluster()
                                          : MachineConfig::four_cluster();
              machine.interconnect.kind = topo;
              machine.iq_int_entries = iq;
              machine.iq_fp_entries = iq;
              machine.interconnect.link_latency = link;
              machine.interconnect.copies_per_link_cycle = bw;
              machine.issue_width_int = width;
              machine.issue_width_fp = width;
              grid.machines.push_back(machine);
              axis.push_back({clusters, iq, link, bw, width, topo});
            }
          }
        }
      }
    }
  }

  grid.schemes = {
      harness::SchemeSpec{steer::Scheme::kOp, 0},
      harness::SchemeSpec{steer::Scheme::kOb, 0},
      harness::SchemeSpec{steer::Scheme::kRhop, 0},
      harness::SchemeSpec{steer::Scheme::kVc, 2},
      harness::SchemeSpec{steer::Scheme::kParallelOp, 0},
  };
  grid.budget = opt.budget();

  bench::Output out(opt);
  const exec::SweepResult sweep = out.run(grid);

  // Rank every (machine, scheme) configuration by mean IPC across traces.
  // Frontier configs carry simulated numbers; everything else carries the
  // model estimate — the source column keeps the two apart.
  const std::size_t num_traces = grid.profiles.size();
  const std::size_t num_machines = grid.machines.size();
  const std::size_t num_schemes = grid.schemes.size();
  const std::size_t num_configs = num_machines * num_schemes;
  std::vector<double> score(num_configs, 0.0);
  for (std::size_t m = 0; m < num_machines; ++m) {
    for (std::size_t s = 0; s < num_schemes; ++s) {
      double sum = 0;
      for (std::size_t t = 0; t < num_traces; ++t) {
        sum += sweep.at(t, m, s).ipc;
      }
      score[m * num_schemes + s] = sum / static_cast<double>(num_traces);
    }
  }
  std::vector<std::size_t> order(num_configs);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return score[a] > score[b];
                   });

  const auto bw_text = [](std::uint32_t bw) {
    return bw == ~0u ? std::string("inf") : std::to_string(bw);
  };
  const std::size_t show = std::min<std::size_t>(12, num_configs);
  stats::Table top("Top configurations by mean IPC (" +
                   std::to_string(num_configs) + " configs x " +
                   std::to_string(num_traces) +
                   " traces; source=model rows are analytical estimates)");
  top.set_columns({"rank", "clusters", "topology", "iq", "link", "copies/cy",
                   "width", "scheme", "mean IPC", "source"});
  for (std::size_t r = 0; r < show; ++r) {
    const std::size_t m = order[r] / num_schemes;
    const std::size_t s = order[r] % num_schemes;
    const AxisPoint& a = axis[m];
    top.row()
        .add(std::uint64_t{r + 1})
        .add(std::uint64_t{a.clusters})
        .add(std::string(topology_name(a.topo)))
        .add(std::uint64_t{a.iq})
        .add(std::uint64_t{a.link})
        .add(bw_text(a.bw))
        .add(std::uint64_t{a.width})
        .add(grid.schemes[s].label(grid.machines[m]))
        .add(score[order[r]], 4)
        .add(sweep.at(0, m, s).source);
  }
  out.add(top);

  // Per-scheme winner: the best machine for each steering scheme, so the
  // table answers "what fabric does each scheme want" at a glance.
  stats::Table winners("Best machine per scheme (by mean IPC)");
  winners.set_columns({"scheme", "clusters", "topology", "iq", "link",
                       "copies/cy", "width", "mean IPC", "source"});
  for (std::size_t s = 0; s < num_schemes; ++s) {
    std::size_t best_m = 0;
    for (std::size_t m = 1; m < num_machines; ++m) {
      if (score[m * num_schemes + s] > score[best_m * num_schemes + s]) {
        best_m = m;
      }
    }
    const AxisPoint& a = axis[best_m];
    winners.row()
        .add(grid.schemes[s].label(grid.machines[best_m]))
        .add(std::uint64_t{a.clusters})
        .add(std::string(topology_name(a.topo)))
        .add(std::uint64_t{a.iq})
        .add(std::uint64_t{a.link})
        .add(bw_text(a.bw))
        .add(std::uint64_t{a.width})
        .add(score[best_m * num_schemes + s], 4)
        .add(sweep.at(0, best_m, s).source);
  }
  out.add(winners);
  return out.finish();
}
