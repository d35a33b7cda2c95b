// Stress tests for the event-driven simulator kernel: degenerate machine
// shapes (1-entry queues, width 1, the kMaxClusters ceiling) that force the
// slot pools to wrap through their free lists every few cycles and push
// every waiter-list edge path (copy wakeups, dual-source waits, copy-queue
// back-pressure), plus bit-identity of the experiment's one reused core:
// runs on it, which start from the warm carried from point to point, must
// match fresh lone runs that warm locally exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "harness/experiment.hpp"
#include "program/program.hpp"
#include "sim/core.hpp"
#include "steer/simple_policies.hpp"
#include "steer/vc_policy.hpp"
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

// ----- reused-core bit-identity --------------------------------------------

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

void expect_stats_equal(const sim::SimStats& a, const sim::SimStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.committed_uops, b.committed_uops);
  EXPECT_EQ(a.dispatched_uops, b.dispatched_uops);
  EXPECT_EQ(a.copies_generated, b.copies_generated);
  EXPECT_EQ(a.alloc_stalls, b.alloc_stalls);
  EXPECT_EQ(a.policy_stalls, b.policy_stalls);
  EXPECT_EQ(a.rob_stalls, b.rob_stalls);
  EXPECT_EQ(a.lsq_stalls, b.lsq_stalls);
  EXPECT_EQ(a.copyq_stalls, b.copyq_stalls);
  EXPECT_EQ(a.copy_bandwidth_stalls, b.copy_bandwidth_stalls);
  EXPECT_EQ(a.regfile_stalls, b.regfile_stalls);
  EXPECT_EQ(a.frontend_empty, b.frontend_empty);
  EXPECT_EQ(a.dispatched_to, b.dispatched_to);
  EXPECT_EQ(a.occupancy_sum, b.occupancy_sum);
  EXPECT_EQ(a.copies_routed, b.copies_routed);
  EXPECT_EQ(a.copy_hops, b.copy_hops);
  EXPECT_EQ(a.link_busy_cycles, b.link_busy_cycles);
  EXPECT_EQ(a.link_contention_cycles, b.link_contention_cycles);
  EXPECT_EQ(a.copyq_occupancy_sum, b.copyq_occupancy_sum);
  EXPECT_EQ(a.remote_steers_by_hops, b.remote_steers_by_hops);
  EXPECT_EQ(a.avoided_contended_links, b.avoided_contended_links);
  EXPECT_EQ(a.memory.loads, b.memory.loads);
  EXPECT_EQ(a.memory.stores, b.memory.stores);
  EXPECT_EQ(a.memory.l1_hits, b.memory.l1_hits);
  EXPECT_EQ(a.memory.l1_misses, b.memory.l1_misses);
  EXPECT_EQ(a.memory.l2_hits, b.memory.l2_hits);
  EXPECT_EQ(a.memory.l2_misses, b.memory.l2_misses);
  EXPECT_EQ(a.memory.port_wait_cycles, b.memory.port_wait_cycles);
}

harness::SimBudget tiny_budget() { return {60'000, 15'000, 2}; }

// One scheme through the evaluation entry point, alone.
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

// ----- shared warm pass ----------------------------------------------------

// Every request of an evaluate() call starts its runs from a copy of the
// same warmed caches, with its own hints restored. Requests evaluated
// together must give the bits each gives alone, in either request order.
// The custom request wraps the VC hardware policy right after a VC request,
// so a run that kept the previous request's hints instead of its own
// cleared ones would differ.
TEST(SharedWarmPass, MatchesLocalWarmingInEitherOrder) {
  const workload::WorkloadProfile& profile =
      *workload::find_profile("186.crafty");
  const MachineConfig machine = MachineConfig::four_cluster();
  std::vector<harness::SchemeRequest> requests = {
      harness::SchemeSpec{steer::Scheme::kOp, 0},
      harness::SchemeSpec{steer::Scheme::kVc, 2}};
  requests.emplace_back("VCPOLICY2", [](const MachineConfig& m) {
    return std::make_unique<steer::VcPolicy>(m, 2);
  });
  for (const steer::Scheme scheme :
       {steer::Scheme::kOb, steer::Scheme::kRhop, steer::Scheme::kVc,
        steer::Scheme::kParallelOp, steer::Scheme::kOneCluster}) {
    requests.emplace_back(harness::SchemeSpec{scheme, 0});
  }

  harness::TraceExperiment lone(profile, machine, tiny_budget());
  std::vector<harness::RunResult> alone;
  for (const harness::SchemeRequest& request : requests) {
    alone.push_back(lone.evaluate({&request, 1})[0]);
  }

  harness::TraceExperiment shared(profile, machine, tiny_budget());
  for (const bool reversed : {false, true}) {
    SCOPED_TRACE(reversed ? "reversed" : "forward");
    std::vector<harness::SchemeRequest> order = requests;
    std::vector<harness::RunResult> expect = alone;
    if (reversed) {
      std::reverse(order.begin(), order.end());
      std::reverse(expect.begin(), expect.end());
    }
    const std::vector<harness::RunResult> results = shared.evaluate(order);
    ASSERT_EQ(results.size(), order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      SCOPED_TRACE("request=" + order[i].label(machine));
      expect_results_equal(results[i], expect[i]);
    }
  }
}

// evaluate() warms one hierarchy forward from point to point and starts
// every run from a copy of it, a lone request's runs too, so the test
// above compares that carried warm only with itself. Here the reference
// runs each point on a fresh core that warms locally from empty over the
// point's whole prefix.
TEST(SharedWarmPass, CarriedWarmMatchesLocalWarming) {
  const workload::WorkloadProfile& profile =
      *workload::find_profile("186.crafty");
  const MachineConfig machine = MachineConfig::four_cluster();
  harness::TraceExperiment experiment(profile, machine,
                                      harness::SimBudget::smoke());
  const std::size_t num_points = experiment.simpoints().size();
  ASSERT_GE(num_points, 3u);
  for (const harness::SchemeSpec& spec :
       {harness::SchemeSpec{steer::Scheme::kOp, 0},
        harness::SchemeSpec{steer::Scheme::kVc, 2}}) {
    SCOPED_TRACE(spec.label(machine));
    prog::Program program = experiment.workload().program;
    harness::annotate_for_scheme(program, spec, machine);
    const std::unique_ptr<steer::SteeringPolicy> policy =
        harness::policy_for_scheme(spec, machine);
    std::uint64_t cycles = 0;
    std::uint64_t committed_uops = 0;
    sim::SimStats last;
    for (std::size_t p = 0; p < num_points; ++p) {
      sim::ClusteredCore core(machine, program);
      last = core.run(experiment.intervals()[p], *policy,
                      experiment.warm_addrs()[p]);
      cycles += last.cycles;
      committed_uops += last.committed_uops;
    }
    const harness::RunResult result = run_one(experiment, spec);
    EXPECT_EQ(result.cycles, cycles);
    EXPECT_EQ(result.committed_uops, committed_uops);
    expect_stats_equal(result.last_interval, last);
  }
}

// ----- completion wheel far overflow ---------------------------------------

// Events kBuckets (2048) or more cycles ahead of the push go to the wheel's
// far-overflow list and reach the ring only through migrate(); a simulated
// machine posts them only when one memory round trip is that long.
constexpr std::uint64_t kWheelBuckets = 2048;

/// Drives a wheel the way the core does, from cycle 0 until every event has
/// drained: due() only where maybe_due() allows (CommitUnit::complete), at
/// every cycle or, with `jump`, only at the cycles next_due() names
/// (ClusteredCoreT::skip_idle_cycles). Pushes `initial` at cycle 0; each
/// drained event with seq < 64 pushes a follow-up up to 8999 cycles ahead,
/// so far events are also posted mid-run. Every event must drain exactly at
/// its cycle. Returns the number drained.
std::size_t drain_wheel(sim::CompletionWheel& wheel,
                        const std::vector<std::uint64_t>& initial,
                        bool jump) {
  wheel.reset();
  std::uint64_t next_seq = 0;
  std::size_t pending = 0;
  auto push = [&](std::uint64_t cycle, std::uint64_t now) {
    wheel.push(sim::Completion{cycle, next_seq++, sim::kNoTag, 0, false},
               now);
    ++pending;
  };
  for (const std::uint64_t cycle : initial) push(cycle, 0);
  std::size_t drained = 0;
  std::uint64_t now = 0;
  while (pending > 0) {
    if (jump) {
      const std::uint64_t target = wheel.next_due(now);
      EXPECT_NE(target, sim::CompletionWheel::kNone) << "at cycle " << now;
      EXPECT_GE(target, now);
      if (target == sim::CompletionWheel::kNone || target < now) break;
      now = target;
    }
    if (wheel.maybe_due(now)) {
      std::vector<sim::Completion>& due = wheel.due(now);
      std::vector<sim::Completion> batch(due.begin(), due.end());
      due.clear();
      for (const sim::Completion& c : batch) {
        EXPECT_EQ(c.cycle, now) << "event " << c.seq;
        --pending;
        ++drained;
        if (c.seq < 64) push(now + kWheelBuckets + (c.seq * 997) % 7000, now);
      }
    }
    ++now;
    if (now > 1'000'000) {
      ADD_FAILURE() << pending << " events never drained";
      break;
    }
  }
  return drained;
}

std::vector<std::uint64_t> far_and_near_events() {
  return {1,    5,    2047, 2048, 2049, 2050, 3000,  3071, 3072,
          3073, 4095, 4096, 4097, 5000, 6143, 9000, 20000, 20000};
}

TEST(CompletionWheel, FarEventsDrainAtTheirCycleWhenProbedEveryCycle) {
  sim::CompletionWheel wheel;
  const std::vector<std::uint64_t> events = far_and_near_events();
  EXPECT_EQ(drain_wheel(wheel, events, /*jump=*/false), events.size() + 64);
}

TEST(CompletionWheel, FarEventsDrainAtTheirCycleWhenNextDueJumps) {
  sim::CompletionWheel wheel;
  const std::vector<std::uint64_t> events = far_and_near_events();
  EXPECT_EQ(drain_wheel(wheel, events, /*jump=*/true), events.size() + 64);
  // A lone far event: next_due() must stop short of it until it migrates.
  EXPECT_EQ(drain_wheel(wheel, {12345}, /*jump=*/true), 65u);
}

// A memory round trip longer than the wheel's ring sends every miss through
// the far list. The StatsObserver core jumps idle cycles with next_due();
// the CountingObserver core steps every cycle. Their SimStats must agree.
TEST(CompletionWheel, MissesBeyondTheRingTimeTheSameSkippedOrStepped) {
  MachineConfig machine = MachineConfig::two_cluster();
  machine.memory_latency = 3000;
  for (const char* name : {"181.mcf", "164.gzip-1", "179.art-1"}) {
    SCOPED_TRACE(name);
    workload::GeneratedWorkload wl =
        workload::generate(*workload::find_profile(name));
    const harness::SchemeSpec spec{steer::Scheme::kVc, 2};
    harness::annotate_for_scheme(wl.program, spec, machine);
    workload::TraceSource source(wl);
    const std::vector<TraceEntry> trace = source.take(20'000);
    const std::unique_ptr<steer::SteeringPolicy> policy =
        harness::policy_for_scheme(spec, machine);
    sim::ClusteredCoreT<sim::StatsObserver> skipping(machine, wl.program);
    sim::ClusteredCoreT<sim::CountingObserver> stepping(machine, wl.program);
    sim::SimStats skipped = skipping.run(trace, *policy);
    const sim::SimStats stepped = stepping.run(trace, *policy);
    EXPECT_GT(skipped.memory.l2_misses, 0u);
    // The occupancy sums are StatsObserver's own recordings; every other
    // counter comes from the simulation itself.
    skipped.occupancy_sum = {};
    skipped.copyq_occupancy_sum = {};
    expect_stats_equal(skipped, stepped);
  }
}

}  // namespace
}  // namespace vcsteer
