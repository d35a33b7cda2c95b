// The paper's two slowdown figures, defined once.
//
// Figure 5 (2 clusters) and Figure 7 (4 clusters) each plot the per-trace
// slowdown (%) of four steering schemes relative to the hardware-only
// occupancy-aware baseline (OP), split into SPECint (a) and SPECfp (b), with
// the INT/FP/CPU2000 averages in (c); §5.4 adds the copy comparison of
// Fig 7's two VC configurations. The figure benches print these tables, the
// golden test pins these grids and the regression test bounds these
// averages, so a grid or a paper number cannot drift between them.
//
// We reproduce the *shape*: the ordering and rough magnitudes, not the
// absolute SPEC numbers (ROADMAP items 1 and 2).
#pragma once

#include <array>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "exec/sweep.hpp"
#include "stats/table.hpp"
#include "workload/profiles.hpp"

namespace vcsteer::bench {

/// Mean slowdown vs OP (%) of each of a figure's four schemes over the INT
/// traces, the FP traces and all traces (CPU2000): its (c) table.
struct SlowdownAverages {
  std::array<double, 4> int_avg{};
  std::array<double, 4> fp_avg{};
  std::array<double, 4> all{};
};

/// One slowdown figure: OP and the four schemes measured against it, on one
/// machine preset, over every trace of a grid.
struct SlowdownFigure {
  const char* name;  ///< "Fig 5": the prefix of every table title.
  MachineConfig (*machine)();
  /// schemes[0] is OP, the baseline; schemes[s + 1] is compared scheme s.
  std::array<harness::SchemeSpec, 5> schemes;
  std::array<const char*, 4> labels;  ///< column label of compared scheme s.
  std::array<double, 4> paper;  ///< the paper's (c) CPU2000 averages.

  exec::SweepGrid grid(std::span<const workload::WorkloadProfile> traces,
                       const harness::SimBudget& budget) const {
    exec::SweepGrid g;
    g.profiles.assign(traces.begin(), traces.end());
    g.machines = {machine()};
    g.schemes.assign(schemes.begin(), schemes.end());
    g.budget = budget;
    return g;
  }

  /// Averages over a sweep of grid(traces, ...), summed in trace order.
  SlowdownAverages averages(std::span<const workload::WorkloadProfile> traces,
                            const exec::SweepResult& sweep) const {
    std::vector<double> int_slows[4], fp_slows[4], all_slows[4];
    for (std::size_t t = 0; t < traces.size(); ++t) {
      for (std::size_t s = 0; s < 4; ++s) {
        const double slow = slowdown(sweep, t, s);
        (traces[t].is_fp ? fp_slows : int_slows)[s].push_back(slow);
        all_slows[s].push_back(slow);
      }
    }
    SlowdownAverages avg;
    for (std::size_t s = 0; s < 4; ++s) {
      avg.int_avg[s] = stats::mean(int_slows[s]);
      avg.fp_avg[s] = stats::mean(fp_slows[s]);
      avg.all[s] = stats::mean(all_slows[s]);
    }
    return avg;
  }

  /// The printed figure over a sweep of grid(traces, ...): (a) per INT
  /// trace, (b) per FP trace, (c) the averages, with the paper's in the
  /// title.
  std::vector<stats::Table> tables(
      std::span<const workload::WorkloadProfile> traces,
      const exec::SweepResult& sweep) const {
    const std::string prefix = name;
    const std::string unit =
        ", " + std::to_string(machine().num_clusters) + " clusters (%)";
    stats::Table int_table(prefix + "(a): SPECint 2000 slowdown vs OP" + unit);
    stats::Table fp_table(prefix + "(b): SPECfp 2000 slowdown vs OP" + unit);
    for (stats::Table* table : {&int_table, &fp_table}) {
      table->set_columns({"trace", labels[0], labels[1], labels[2], labels[3]});
    }
    for (std::size_t t = 0; t < traces.size(); ++t) {
      stats::Table& table = traces[t].is_fp ? fp_table : int_table;
      table.row().add(traces[t].name);
      for (std::size_t s = 0; s < 4; ++s) table.add(slowdown(sweep, t, s), 2);
    }

    std::string title =
        prefix + "(c): average slowdown vs OP" + unit + "  [paper:";
    for (std::size_t s = 0; s < 4; ++s) {
      char value[32];
      std::snprintf(value, sizeof(value), " %.2f", paper[s]);
      title += std::string(s == 0 ? " " : ", ") + labels[s] + value;
    }
    stats::Table avg_table(title + "]");
    avg_table.set_columns({"config", "INT AVG", "FP AVG", "CPU2000 AVG"});
    const SlowdownAverages avg = averages(traces, sweep);
    for (std::size_t s = 0; s < 4; ++s) {
      avg_table.row()
          .add(std::string(labels[s]))
          .add(avg.int_avg[s], 2)
          .add(avg.fp_avg[s], 2)
          .add(avg.all[s], 2);
    }
    return {int_table, fp_table, avg_table};
  }

 private:
  static double slowdown(const exec::SweepResult& sweep, std::size_t t,
                         std::size_t s) {
    return stats::slowdown_pct(sweep.at(t, 0).ipc, sweep.at(t, s + 1).ipc);
  }
};

inline constexpr SlowdownFigure kFig5 = {
    "Fig 5",
    &MachineConfig::two_cluster,
    {{{steer::Scheme::kOp, 0},
      {steer::Scheme::kOneCluster, 0},
      {steer::Scheme::kOb, 0},
      {steer::Scheme::kRhop, 0},
      {steer::Scheme::kVc, 2}}},  // paper: 2 VCs on 2 clusters
    {"one-cluster", "OB", "RHOP", "VC"},
    {12.19, 6.50, 5.40, 2.62},
};

inline constexpr SlowdownFigure kFig7 = {
    "Fig 7",
    &MachineConfig::four_cluster,
    {{{steer::Scheme::kOp, 0},
      {steer::Scheme::kOb, 0},
      {steer::Scheme::kRhop, 0},
      {steer::Scheme::kVc, 4},
      {steer::Scheme::kVc, 2}}},
    {"OB", "RHOP", "VC(4->4)", "VC(2->4)"},
    {12.45, 12.69, 12.96, 3.64},
};

/// §5.4: VC(4->4) generates about 28% more copies than VC(2->4), because
/// pairs of critical dependent instructions get spread across virtual
/// clusters that the hardware may map apart.
inline constexpr double kPaperCopyExcessPct = 28.0;

struct CopyExcess {
  double vc44_per_kuop = 0.0;  ///< mean copies/kuop of VC(4->4).
  double vc24_per_kuop = 0.0;  ///< mean copies/kuop of VC(2->4).
  double excess_pct = 0.0;     ///< VC(4->4)'s copies over VC(2->4)'s, in %.
};

/// The §5.4 comparison over a sweep of a kFig7 grid, summed in trace order.
inline CopyExcess copy_excess(const exec::SweepResult& fig7_sweep) {
  double copies44 = 0.0, copies24 = 0.0;
  for (std::size_t t = 0; t < fig7_sweep.num_traces(); ++t) {
    copies44 += fig7_sweep.at(t, 3).copies_per_kuop;  // VC(4->4)
    copies24 += fig7_sweep.at(t, 4).copies_per_kuop;  // VC(2->4)
  }
  const auto traces = static_cast<double>(fig7_sweep.num_traces());
  return {copies44 / traces, copies24 / traces,
          copies24 > 0 ? (copies44 / copies24 - 1.0) * 100.0 : 0.0};
}

/// Title of the §5.4 table, with the paper's excess in it.
inline std::string copy_excess_title() {
  char title[96];
  std::snprintf(title, sizeof(title),
                "Sec 5.4: copy micro-ops, VC(4->4) vs VC(2->4)  "
                "[paper: +%.0f%% on average]",
                kPaperCopyExcessPct);
  return title;
}

}  // namespace vcsteer::bench
