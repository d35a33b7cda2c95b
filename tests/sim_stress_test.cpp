// Stress tests for the event-driven simulator kernel: degenerate machine
// shapes (1-entry queues, width 1, the kMaxClusters ceiling) that force the
// slot pools to wrap through their free lists every few cycles and push
// every waiter-list edge path (copy wakeups, dual-source waits, copy-queue
// back-pressure), plus bit-identity of the reusable SimContext arena: runs
// served by one reused context, or batched through its lane arenas, must
// match fresh singleton runs exactly.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "harness/experiment.hpp"
#include "program/program.hpp"
#include "sim/core.hpp"
#include "sim/sim_context.hpp"
#include "steer/mod_policy.hpp"
#include "steer/simple_policies.hpp"
#include "workload/profiles.hpp"
#include "workload/trace.hpp"

namespace vcsteer {
namespace {

using isa::ArchReg;
using isa::MicroOp;
using isa::OpClass;
using isa::RegFile;
using workload::TraceEntry;

ArchReg r(std::uint8_t i) { return {RegFile::kInt, i}; }
ArchReg f(std::uint8_t i) { return {RegFile::kFp, i}; }

MicroOp op_on(OpClass op, ArchReg dst, std::initializer_list<ArchReg> srcs,
              std::int8_t cluster) {
  MicroOp u;
  u.op = op;
  u.has_dst = true;
  u.dst = dst;
  VCSTEER_CHECK(srcs.size() <= 2);
  for (ArchReg s : srcs) u.srcs[u.num_srcs++] = s;
  u.hint.static_cluster = cluster;
  return u;
}

/// Single-block program + linear trace repeating it `repeats` times.
struct Bench {
  explicit Bench(std::vector<MicroOp> uops, std::uint32_t repeats) {
    prog::ProgramBuilder builder("stress");
    builder.begin_block();
    for (const MicroOp& u : uops) builder.add(u);
    builder.end_block({{0, 1.0}});
    program = std::make_unique<prog::Program>(std::move(builder).finish());
    for (std::uint32_t rep = 0; rep < repeats; ++rep) {
      for (prog::UopId u = 0; u < uops.size(); ++u) {
        trace.push_back({u, uops[u].is_mem() ? 0x2000 + 64 * (rep % 32) : 0});
      }
    }
  }

  std::unique_ptr<prog::Program> program;
  std::vector<TraceEntry> trace;
};

sim::SimStats run_static(Bench& bench, const MachineConfig& cfg) {
  sim::ClusteredCore core(cfg, *bench.program);
  steer::StaticFollowerPolicy policy("stress");
  return core.run(bench.trace, policy);
}

// 1-entry queues and width-1 everything: every dispatch fills a queue, every
// issue wraps its pool through the free list, and cross-cluster sources
// exercise the copy waiter path under constant back-pressure.
TEST(SimStress, OneEntryQueuesCompleteAndWrapPools) {
  MachineConfig cfg = MachineConfig::two_cluster();
  cfg.iq_int_entries = 1;
  cfg.iq_fp_entries = 1;
  cfg.iq_copy_entries = 1;
  cfg.issue_width_int = 1;
  cfg.issue_width_fp = 1;
  cfg.issue_width_copy = 1;
  // Decode must fit a uop plus its copy in one cycle (a width-1 front-end
  // livelocks on any copy-generating trace, with or without this kernel),
  // so only the queues and issue widths are degenerate here.
  cfg.decode_width_int = 2;
  cfg.decode_width_fp = 1;
  cfg.fetch_width = 1;

  Bench bench({op_on(OpClass::kIntAlu, r(1), {r(0)}, 0),
               op_on(OpClass::kIntAlu, r(2), {r(1)}, 1),  // cross-cluster
               op_on(OpClass::kFpAdd, f(1), {f(1)}, 0),
               op_on(OpClass::kIntDiv, r(3), {r(2)}, 1),
               op_on(OpClass::kLoad, r(4), {r(1)}, 0),
               op_on(OpClass::kIntAlu, r(5), {r(4), r(2)}, 1)},  // two waits
              60);
  const sim::SimStats stats = run_static(bench, cfg);
  EXPECT_EQ(stats.committed_uops, bench.trace.size());
  EXPECT_GT(stats.copies_generated, 0u);

  const sim::SimStats again = run_static(bench, cfg);
  EXPECT_EQ(stats.cycles, again.cycles);
  EXPECT_EQ(stats.copies_generated, again.copies_generated);
  EXPECT_EQ(stats.alloc_stalls, again.alloc_stalls);
}

// A chain hopping through all kMaxClusters clusters: the waiter machinery
// must track publishes in every cluster (full avail_mask width) and the
// cluster_bit arithmetic must hold at the ceiling.
TEST(SimStress, ChainAcrossMaxClusters) {
  MachineConfig cfg = MachineConfig::four_cluster();
  cfg.num_clusters = sim::kMaxClusters;

  std::vector<MicroOp> uops;
  for (std::uint32_t c = 0; c < sim::kMaxClusters; ++c) {
    uops.push_back(op_on(OpClass::kIntAlu, r(1), {r(1)},
                         static_cast<std::int8_t>(c)));
  }
  Bench bench(uops, 40);
  const sim::SimStats stats = run_static(bench, cfg);
  EXPECT_EQ(stats.committed_uops, bench.trace.size());
  // Every hop of every iteration but the first read needs a copy.
  EXPECT_EQ(stats.copies_generated, bench.trace.size() - 1);
  for (std::uint32_t c = 0; c < sim::kMaxClusters; ++c) {
    EXPECT_EQ(stats.dispatched_to[c], 40u);
  }
}

// Two fresh remote values per iteration against a 1-entry copy queue:
// dispatch must stall on copy-queue capacity (the cumulative resource
// check) yet the run still completes, with the queue's single slot
// recycling throughout. (A single uop needing two simultaneous copies
// could never dispatch through a 1-entry queue, so each consumer here
// reads one remote source.)
TEST(SimStress, TinyCopyQueueBackpressure) {
  MachineConfig cfg = MachineConfig::two_cluster();
  cfg.iq_copy_entries = 1;

  Bench bench({op_on(OpClass::kIntAlu, r(1), {r(1)}, 0),
               op_on(OpClass::kIntAlu, r(2), {r(2)}, 0),
               op_on(OpClass::kIntAlu, r(3), {r(1)}, 1),
               op_on(OpClass::kIntAlu, r(4), {r(2)}, 1)},
              50);
  const sim::SimStats stats = run_static(bench, cfg);
  EXPECT_EQ(stats.committed_uops, bench.trace.size());
  EXPECT_GT(stats.copies_generated, 0u);
  EXPECT_GT(stats.copyq_stalls, 0u);
}

// ----- SimContext arena bit-identity ---------------------------------------

void expect_results_equal(const harness::RunResult& a,
                          const harness::RunResult& b) {
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.copies_per_kuop, b.copies_per_kuop);
  EXPECT_EQ(a.alloc_stalls_per_kuop, b.alloc_stalls_per_kuop);
  EXPECT_EQ(a.policy_stalls_per_kuop, b.policy_stalls_per_kuop);
  EXPECT_EQ(a.copy_hops_per_kuop, b.copy_hops_per_kuop);
  EXPECT_EQ(a.link_contention_per_kuop, b.link_contention_per_kuop);
  EXPECT_EQ(a.avoided_contended_per_kuop, b.avoided_contended_per_kuop);
  EXPECT_EQ(a.committed_uops, b.committed_uops);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.last_interval.cycles, b.last_interval.cycles);
  EXPECT_EQ(a.last_interval.copies_generated, b.last_interval.copies_generated);
  EXPECT_EQ(a.last_interval.alloc_stalls, b.last_interval.alloc_stalls);
  EXPECT_EQ(a.last_interval.copy_hops, b.last_interval.copy_hops);
}

harness::SimBudget tiny_budget() { return {60'000, 15'000, 2}; }

// One scheme through the evaluation entry point, singleton (batch_lanes 1).
harness::RunResult run_one(harness::TraceExperiment& experiment,
                           const harness::SchemeSpec& spec) {
  const std::vector<harness::SchemeRequest> requests = {spec};
  return experiment.evaluate(requests)[0];
}

// Back-to-back runs of one spec on one experiment reuse the same arena (the
// second run starts from a reset, not a reconstruction) and must reproduce
// a fresh experiment's bits exactly.
TEST(SimContextReuse, RepeatRunMatchesFreshContext) {
  const workload::WorkloadProfile& profile =
      *workload::find_profile("186.crafty");
  const MachineConfig machine = MachineConfig::two_cluster();
  const harness::SchemeSpec spec{steer::Scheme::kOp, 0};

  harness::TraceExperiment reused(profile, machine, tiny_budget());
  const harness::RunResult first = run_one(reused, spec);
  const harness::RunResult second = run_one(reused, spec);
  expect_results_equal(first, second);

  harness::TraceExperiment fresh(profile, machine, tiny_budget());
  expect_results_equal(first, run_one(fresh, spec));
}

// Interleaving schemes through one arena must not leak state between them:
// OP after VC reproduces OP-before-VC, including on a contention-modeled
// fabric with topology-aware steering (congestion EWMAs, link claims and
// the per-pair cost matrices all reset with the context).
TEST(SimContextReuse, SchemeInterleavingLeaksNoState) {
  const workload::WorkloadProfile& profile =
      *workload::find_profile("186.crafty");
  MachineConfig machine = MachineConfig::four_cluster();
  machine.interconnect.kind = Topology::kRing;
  machine.steer.topology_aware = true;
  const harness::SchemeSpec op{steer::Scheme::kOp, 0};
  const harness::SchemeSpec vc{steer::Scheme::kVc, 2};

  harness::TraceExperiment reused(profile, machine, tiny_budget());
  const harness::RunResult op_first = run_one(reused, op);
  const harness::RunResult vc_between = run_one(reused, vc);
  const harness::RunResult op_again = run_one(reused, op);
  expect_results_equal(op_first, op_again);

  harness::TraceExperiment fresh(profile, machine, tiny_budget());
  expect_results_equal(vc_between, run_one(fresh, vc));
}

// ----- batched evaluate() bit-identity ------------------------------------

// Batched evaluate() must fan every result out bit-identical to a singleton
// evaluate() of the same request, for every lane count. The seven built-in
// requests outnumber most group sizes, so multi-lane groups (one shared
// warm pass per simulation point), leftover groups of one and the
// custom-policy request all run. One experiment serves every lane count, so
// later calls reuse the lane arenas that earlier ones built, and each
// scheme lands in a different lane position from one lane count to the
// next.
TEST(BatchedEvaluate, EveryLaneCountMatchesSingletonRuns) {
  const workload::WorkloadProfile& profile =
      *workload::find_profile("186.crafty");
  const MachineConfig machine = MachineConfig::four_cluster();
  std::vector<harness::SchemeRequest> requests = {
      harness::SchemeSpec{steer::Scheme::kOp, 0},
      harness::SchemeSpec{steer::Scheme::kVc, 2},
      harness::SchemeSpec{steer::Scheme::kOb, 0}};
  requests.emplace_back("MOD3", [](const MachineConfig&) {
    return std::make_unique<steer::ModNPolicy>(3);
  });
  for (const steer::Scheme scheme :
       {steer::Scheme::kRhop, steer::Scheme::kVc, steer::Scheme::kParallelOp,
        steer::Scheme::kOneCluster}) {
    requests.emplace_back(harness::SchemeSpec{scheme, 0});
  }
  // Lane groups and leftover built-in singletons for lanes = 1..8 over the
  // seven built-in requests.
  const std::size_t kGroups[] = {0, 3, 2, 2, 2, 1, 1, 1};
  const std::size_t kLeftover[] = {7, 1, 1, 0, 0, 1, 0, 0};

  harness::TraceExperiment singleton(profile, machine, tiny_budget());
  std::vector<harness::RunResult> alone;
  for (const harness::SchemeRequest& request : requests) {
    alone.push_back(singleton.evaluate({&request, 1})[0]);
  }

  harness::TraceExperiment batched(profile, machine, tiny_budget());
  for (std::uint32_t lanes = 1; lanes <= harness::kMaxBatchLanes; ++lanes) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    harness::EvalCounters counters;
    const std::vector<harness::RunResult> results =
        batched.evaluate(requests, lanes, &counters);
    EXPECT_EQ(counters.lane_groups, kGroups[lanes - 1]);
    EXPECT_EQ(counters.batched_points, 7 - kLeftover[lanes - 1]);
    ASSERT_EQ(results.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      SCOPED_TRACE("request=" + std::to_string(i));
      expect_results_equal(results[i], alone[i]);
    }
  }
}

}  // namespace
}  // namespace vcsteer
