// Property tests for the analytical critical-path model (src/model/).
//
// The model's whole value proposition is that it is safe to *rank* design
// points with: every resource constraint — a prefix-max stream lookup for
// the in-order stages, an order statistic over free times for the
// out-of-order windows, a first-fit cycle placement for the rate resources —
// can only move earlier when that resource widens. These tests pin that
// monotonicity over a real generated trace, the zero-cost-interconnect
// collapse that anchors the model's communication charges to zero when the
// fabric is free, and the exact estimates on a set of corner-case machines.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "harness/experiment.hpp"
#include "model/critpath.hpp"
#include "workload/profiles.hpp"

namespace vcsteer::model {
namespace {

// One shared materialised trace: generation + PinPoints + interval replay
// dominate test time, and the trace is machine-independent (the machine
// passed to the constructor only shapes simulation, which never runs here).
const harness::TraceExperiment& shared_trace() {
  static const auto* exp = [] {
    const workload::WorkloadProfile* p = workload::find_profile("186.crafty");
    EXPECT_NE(p, nullptr);
    return new harness::TraceExperiment(*p, MachineConfig::two_cluster(),
                                        harness::SimBudget::smoke());
  }();
  return *exp;
}

// (cycles, copies, copy_hops) summed over every simulation point of the
// shared trace, annotated for `spec` under `machine` (the same software
// passes the simulator would run).
using Totals = std::array<std::uint64_t, 3>;

Totals predicted_totals(const MachineConfig& machine,
                        const harness::SchemeSpec& spec) {
  const harness::TraceExperiment& exp = shared_trace();
  prog::Program program = exp.workload().program;
  harness::annotate_for_scheme(program, spec, machine);
  Totals totals{};
  for (std::size_t i = 0; i < exp.intervals().size(); ++i) {
    const auto extra = memory_latencies(program, exp.intervals()[i],
                                        exp.warm_addrs()[i], machine);
    const IntervalEstimate est = estimate_interval(
        program, exp.intervals()[i], extra, machine, spec.scheme);
    totals[0] += est.cycles;
    totals[1] += est.copies;
    totals[2] += est.copy_hops;
  }
  return totals;
}

std::uint64_t predicted_cycles(const MachineConfig& machine,
                               steer::Scheme scheme) {
  return predicted_totals(machine, {scheme, 0})[0];
}

TEST(CritPath, Deterministic) {
  const MachineConfig machine = MachineConfig::two_cluster();
  EXPECT_EQ(predicted_cycles(machine, steer::Scheme::kOp),
            predicted_cycles(machine, steer::Scheme::kOp));
}

TEST(CritPath, EstimateIsPlausible) {
  const harness::TraceExperiment& exp = shared_trace();
  const MachineConfig machine = MachineConfig::two_cluster();
  prog::Program program = exp.workload().program;
  harness::annotate_for_scheme(program, {steer::Scheme::kOp, 0}, machine);
  const auto& interval = exp.intervals()[0];
  const auto extra =
      memory_latencies(program, interval, exp.warm_addrs()[0], machine);
  const IntervalEstimate est =
      estimate_interval(program, interval, extra, machine, steer::Scheme::kOp);
  EXPECT_EQ(est.committed_uops, interval.size());
  EXPECT_GT(est.cycles, 0u);
  // The machine cannot beat its fetch width: cycles >= uops / fetch_width.
  EXPECT_GE(est.cycles * machine.fetch_width, est.committed_uops);
}

TEST(CritPath, SingleClusterChargesNoCopies) {
  const harness::TraceExperiment& exp = shared_trace();
  MachineConfig machine = MachineConfig::two_cluster();
  machine.num_clusters = 1;
  prog::Program program = exp.workload().program;
  harness::annotate_for_scheme(program, {steer::Scheme::kOneCluster, 0},
                               machine);
  const auto extra = memory_latencies(program, exp.intervals()[0],
                                      exp.warm_addrs()[0], machine);
  const IntervalEstimate est =
      estimate_interval(program, exp.intervals()[0], extra, machine,
                        steer::Scheme::kOneCluster);
  EXPECT_EQ(est.copies, 0u);
  EXPECT_EQ(est.copy_hops, 0u);
}

// A narrow ring machine, so every resource constraint actually binds
// somewhere (an ideal fabric would make the bandwidth knobs no-ops).
MachineConfig binding_ring() {
  MachineConfig m = MachineConfig::four_cluster();
  m.interconnect.kind = Topology::kRing;
  m.interconnect.link_latency = 2;
  m.interconnect.copies_per_link_cycle = 1;
  m.iq_int_entries = 16;
  m.iq_fp_entries = 16;
  m.lsq_entries = 64;
  return m;
}

// Cluster and front-end resources too large to bind anywhere in the trace.
MachineConfig huge_queues(MachineConfig m) {
  m.iq_int_entries = 1u << 20;
  m.iq_fp_entries = 1u << 20;
  m.iq_copy_entries = 1u << 20;
  m.issue_width_int = 1u << 10;
  m.issue_width_fp = 1u << 10;
  m.issue_width_copy = 1u << 10;
  m.decode_width_int = 1u << 10;
  m.decode_width_fp = 1u << 10;
  return m;
}

// Widening any single resource never increases the predicted cycles — for
// every scheme whose steering the model approximates. Each lambda widens
// exactly one knob.
TEST(CritPath, WideningAnySingleResourceNeverIncreasesCycles) {
  const auto widenings = {
      +[](MachineConfig& m) { m.iq_int_entries *= 2; },
      +[](MachineConfig& m) { m.iq_fp_entries *= 2; },
      +[](MachineConfig& m) { m.iq_copy_entries *= 2; },
      +[](MachineConfig& m) { m.issue_width_int += 1; },
      +[](MachineConfig& m) { m.issue_width_fp += 1; },
      +[](MachineConfig& m) { m.issue_width_copy += 1; },
      +[](MachineConfig& m) { m.rob_int_entries *= 2; },
      +[](MachineConfig& m) { m.rob_fp_entries *= 2; },
      +[](MachineConfig& m) { m.lsq_entries *= 2; },
      +[](MachineConfig& m) { m.fetch_width += 2; },
      +[](MachineConfig& m) { m.decode_width_int += 1; },
      +[](MachineConfig& m) { m.commit_width_int += 1; },
      +[](MachineConfig& m) { m.interconnect.copies_per_link_cycle += 1; },
      +[](MachineConfig& m) { m.interconnect.copies_per_link_cycle = ~0u; },
  };
  for (const steer::Scheme scheme :
       {steer::Scheme::kOp, steer::Scheme::kOb, steer::Scheme::kVc}) {
    const MachineConfig base = binding_ring();
    const std::uint64_t baseline = predicted_cycles(base, scheme);
    int knob = 0;
    for (const auto widen : widenings) {
      MachineConfig wide = base;
      widen(wide);
      EXPECT_LE(predicted_cycles(wide, scheme), baseline)
          << "scheme " << static_cast<int>(scheme) << " knob " << knob;
      ++knob;
    }
  }
}

// A free fabric (zero link latency, unlimited bandwidth) with cluster and
// front-end resources too large to bind collapses a 4-cluster machine
// exactly onto the single-cluster bound: copies cost nothing, so clustering
// cannot be predicted slower than the unified core. This pins the model's
// copy charge to hops * link_latency with no fixed term. Decode must be
// oversized too: copies consume decode slots (in the simulator and the
// model alike) even when the fabric itself is free.
TEST(CritPath, ZeroCostInterconnectCollapsesToSingleClusterBound) {
  MachineConfig clustered = huge_queues(MachineConfig::four_cluster());
  clustered.interconnect.link_latency = 0;
  clustered.interconnect.copies_per_link_cycle = ~0u;
  MachineConfig single = huge_queues(MachineConfig::four_cluster());
  single.num_clusters = 1;
  EXPECT_EQ(predicted_cycles(clustered, steer::Scheme::kOp),
            predicted_cycles(single, steer::Scheme::kOneCluster));
}

// The walker refuses the machines the simulator refuses and it cannot walk:
// no cluster to steer to, or no fetch bandwidth to pace dispatch by. It does
// not demand MachineConfig::validate() as a whole — a zero link latency is a
// machine the model walks (the collapse test above).
TEST(CritPath, RejectsMachinesItCannotWalk) {
  const harness::TraceExperiment& exp = shared_trace();
  const prog::Program& program = exp.workload().program;
  const auto& interval = exp.intervals()[0];
  const std::vector<std::uint32_t> extra(interval.size(), 0);
  MachineConfig no_clusters = MachineConfig::two_cluster();
  no_clusters.num_clusters = 0;
  EXPECT_DEATH(estimate_interval(program, interval, extra, no_clusters,
                                 steer::Scheme::kOp),
               "model needs num_clusters >= 1");
  MachineConfig no_fetch = MachineConfig::two_cluster();
  no_fetch.fetch_width = 0;
  EXPECT_DEATH(estimate_interval(program, interval, extra, no_fetch,
                                 steer::Scheme::kOp),
               "model needs fetch_width >= 1");
}

// Exact estimates, recorded from the model and pinned so that a change to
// the constraint primitives' storage or evaluation order cannot move a
// single cycle unnoticed. The machines cover the corners of that storage:
// presets, a binding ring, every capacity and width at 1, unlimited
// resources, a 5000-cycle memory that books issue and copy slots far
// beyond the dispatch frontier, and ROB sizes that are not powers of two.
TEST(CritPath, EstimatesMatchRecordedValues) {
  MachineConfig minimal = MachineConfig::two_cluster();
  minimal.fetch_width = 1;
  minimal.decode_width_int = 1;
  minimal.decode_width_fp = 1;
  minimal.rob_int_entries = 1;
  minimal.rob_fp_entries = 1;
  minimal.commit_width_int = 1;
  minimal.commit_width_fp = 1;
  minimal.iq_int_entries = 1;
  minimal.iq_fp_entries = 1;
  minimal.iq_copy_entries = 1;
  minimal.issue_width_int = 1;
  minimal.issue_width_fp = 1;
  minimal.issue_width_copy = 1;
  minimal.lsq_entries = 1;
  minimal.interconnect.kind = Topology::kBus;
  minimal.interconnect.copies_per_link_cycle = 1;

  MachineConfig unlimited = huge_queues(binding_ring());
  unlimited.lsq_entries = ~0u;
  unlimited.interconnect.copies_per_link_cycle = ~0u;

  MachineConfig far_memory = MachineConfig::four_cluster();
  far_memory.memory_latency = 5000;
  far_memory.issue_width_int = 1;
  far_memory.issue_width_fp = 1;
  far_memory.issue_width_copy = 1;
  far_memory.interconnect.kind = Topology::kBus;
  far_memory.interconnect.copies_per_link_cycle = 1;

  // ROB sizes that are not powers of two, so each ROB stream's ring (128 /
  // 64) is larger than its back distance; and one-copy-per-cycle link pools
  // per cluster pair, some booked so rarely that the dispatch floor passes
  // the pool's whole ring between two placements — slots of the same
  // residue left from the earlier lap must read as empty.
  MachineConfig odd_sizes = binding_ring();
  odd_sizes.rob_int_entries = 100;
  odd_sizes.rob_fp_entries = 60;

  const harness::SchemeSpec schemes[] = {
      {steer::Scheme::kOneCluster, 0}, {steer::Scheme::kOp, 0},
      {steer::Scheme::kParallelOp, 0}, {steer::Scheme::kOb, 0},
      {steer::Scheme::kRhop, 0},       {steer::Scheme::kVc, 2},
  };
  struct Pinned {
    const char* name;
    MachineConfig machine;
    std::array<Totals, std::size(schemes)> totals;  ///< per scheme above.
  };
  const Pinned pinned[] = {
      {"two_cluster", MachineConfig::two_cluster(),
       {{{71904, 0, 0}, {60461, 5201, 5201}, {60461, 5201, 5201},
         {67724, 2876, 2876}, {60798, 5191, 5191}, {61291, 10577, 10577}}}},
      {"binding_ring", binding_ring(),
       {{{102159, 0, 0}, {81339, 10565, 21265}, {81339, 10565, 21265},
         {98015, 5768, 11235}, {83709, 9519, 18840}, {89190, 12749, 25798}}}},
      {"minimal", minimal,
       {{{449451, 0, 0}, {464510, 5201, 5201}, {464510, 5201, 5201},
         {457715, 2876, 2876}, {464796, 5191, 5191}, {479259, 10250, 10250}}}},
      {"unlimited", unlimited,
       {{{56860, 0, 0}, {60604, 10565, 21265}, {60604, 10565, 21265},
         {57401, 5768, 11235}, {60852, 9519, 18840}, {60443, 13861, 28157}}}},
      {"far_memory", far_memory,
       {{{484491, 0, 0}, {415218, 10565, 10565}, {415218, 10565, 10565},
         {454737, 5768, 5768}, {414887, 9519, 9519}, {417193, 16320, 16320}}}},
      {"odd_sizes", odd_sizes,
       {{{109955, 0, 0}, {92816, 10565, 21265}, {92816, 10565, 21265},
         {106339, 5768, 11235}, {94620, 9519, 18840}, {100503, 12749, 25798}}}},
  };
  for (const Pinned& p : pinned) {
    EXPECT_EQ(p.machine.validate(), "") << p.name;
    for (std::size_t s = 0; s < std::size(schemes); ++s) {
      EXPECT_EQ(predicted_totals(p.machine, schemes[s]), p.totals[s])
          << p.name << " / " << schemes[s].label(p.machine);
    }
  }
}

}  // namespace
}  // namespace vcsteer::model
