// Tests for the clustered out-of-order core: commit/dispatch accounting,
// copy generation and replica tracking, issue-width and dependence timing,
// memory latencies, stall classification, divider blocking, and the
// paper's §2.1 sequential-vs-parallel steering example.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "program/program.hpp"
#include "sim/core.hpp"
#include "steer/op_policy.hpp"
#include "steer/policy.hpp"
#include "steer/simple_policies.hpp"
#include "workload/trace.hpp"

namespace vcsteer::sim {
namespace {

using isa::ArchReg;
using isa::MicroOp;
using isa::OpClass;
using isa::RegFile;
using prog::ProgramBuilder;
using workload::TraceEntry;

ArchReg r(std::uint8_t i) { return {RegFile::kInt, i}; }
ArchReg f(std::uint8_t i) { return {RegFile::kFp, i}; }

/// Builds a single-block program from the given micro-ops and a linear
/// trace that executes it `repeats` times.
struct TestBench {
  explicit TestBench(std::vector<MicroOp> uops, std::uint32_t repeats = 1) {
    ProgramBuilder builder("test");
    builder.begin_block();
    for (const MicroOp& u : uops) builder.add(u);
    builder.end_block({{0, 1.0}});
    program = std::make_unique<prog::Program>(std::move(builder).finish());
    for (std::uint32_t rep = 0; rep < repeats; ++rep) {
      for (prog::UopId u = 0; u < uops.size(); ++u) {
        trace.push_back({u, addr_of(uops[u], rep)});
      }
    }
  }

  static std::uint64_t addr_of(const MicroOp& u, std::uint32_t rep) {
    return u.is_mem() ? 0x1000 + rep * 64 : 0;
  }

  std::unique_ptr<prog::Program> program;
  std::vector<TraceEntry> trace;
};

MicroOp alu(ArchReg dst, std::initializer_list<ArchReg> srcs,
            std::int8_t cluster = -1) {
  MicroOp u;
  u.op = OpClass::kIntAlu;
  u.has_dst = true;
  u.dst = dst;
  VCSTEER_CHECK(srcs.size() <= 2);
  for (ArchReg s : srcs) u.srcs[u.num_srcs++] = s;
  u.hint.static_cluster = cluster;
  return u;
}

MicroOp load(ArchReg dst, ArchReg addr, std::int8_t cluster = -1) {
  MicroOp u;
  u.op = OpClass::kLoad;
  u.has_dst = true;
  u.dst = dst;
  u.num_srcs = 1;
  u.srcs[0] = addr;
  u.hint.static_cluster = cluster;
  return u;
}

MicroOp div(ArchReg dst, ArchReg src, std::int8_t cluster = -1) {
  MicroOp u;
  u.op = OpClass::kIntDiv;
  u.has_dst = true;
  u.dst = dst;
  u.num_srcs = 1;
  u.srcs[0] = src;
  u.hint.static_cluster = cluster;
  return u;
}

SimStats run_static(TestBench& bench, const MachineConfig& cfg) {
  ClusteredCore core(cfg, *bench.program);
  steer::StaticFollowerPolicy policy("test");
  return core.run(bench.trace, policy);
}

TEST(Core, CommitsEveryTraceEntry) {
  TestBench bench({alu(r(1), {r(0)}, 0), alu(r(2), {r(1)}, 0)}, 50);
  const SimStats stats = run_static(bench, MachineConfig::two_cluster());
  EXPECT_EQ(stats.committed_uops, 100u);
  EXPECT_EQ(stats.dispatched_uops, 100u);
  EXPECT_GT(stats.cycles, 0u);
}

TEST(Core, DispatchDistributionSumsUp) {
  TestBench bench({alu(r(1), {}, 0), alu(r(2), {}, 1), alu(r(3), {}, 1)}, 40);
  const SimStats stats = run_static(bench, MachineConfig::two_cluster());
  EXPECT_EQ(stats.dispatched_to[0], 40u);
  EXPECT_EQ(stats.dispatched_to[1], 80u);
}

TEST(Core, SerialChainRunsAtOneIpc) {
  // 200 dependent ALU ops in one cluster: 1 per cycle once warmed up.
  std::vector<MicroOp> uops;
  for (int i = 0; i < 4; ++i) uops.push_back(alu(r(1), {r(1)}, 0));
  TestBench bench(uops, 50);
  const SimStats stats = run_static(bench, MachineConfig::two_cluster());
  EXPECT_GE(stats.cycles, 200u);        // dependence bound
  EXPECT_LE(stats.cycles, 200u + 30u);  // plus pipeline fill
}

TEST(Core, IndependentOpsBoundByClusterIssueWidth) {
  // Independent ops all on cluster 0: 2/cycle issue limit dominates.
  std::vector<MicroOp> uops;
  for (int i = 0; i < 6; ++i) {
    uops.push_back(alu(r(static_cast<std::uint8_t>(4 + i)), {}, 0));
  }
  TestBench bench(uops, 50);
  const SimStats stats = run_static(bench, MachineConfig::two_cluster());
  EXPECT_GE(stats.cycles, 150u);  // 300 uops / issue width 2
  EXPECT_LE(stats.cycles, 190u);
}

TEST(Core, TwoClustersDoubleIndependentThroughput) {
  // Same ops split across clusters: decode (3 INT/cycle) becomes the limit.
  std::vector<MicroOp> uops;
  for (int i = 0; i < 6; ++i) {
    uops.push_back(
        alu(r(static_cast<std::uint8_t>(4 + i)), {}, i % 2 ? 1 : 0));
  }
  TestBench bench(uops, 50);
  const SimStats stats = run_static(bench, MachineConfig::two_cluster());
  EXPECT_GE(stats.cycles, 100u);  // 300 uops / decode width 3
  EXPECT_LE(stats.cycles, 140u);
}

TEST(Core, CrossClusterDependenceGeneratesOneCopy) {
  TestBench bench({alu(r(1), {}, 0), alu(r(2), {r(1)}, 1)});
  const SimStats stats = run_static(bench, MachineConfig::two_cluster());
  EXPECT_EQ(stats.copies_generated, 1u);
}

TEST(Core, ReplicaReusedBySecondConsumer) {
  // Two consumers of r1 in cluster 1: the replica is copied once.
  TestBench bench({alu(r(1), {}, 0), alu(r(2), {r(1)}, 1),
                   alu(r(3), {r(1)}, 1)});
  const SimStats stats = run_static(bench, MachineConfig::two_cluster());
  EXPECT_EQ(stats.copies_generated, 1u);
}

TEST(Core, SameClusterConsumersNeedNoCopy) {
  TestBench bench({alu(r(1), {}, 0), alu(r(2), {r(1)}, 0)}, 20);
  const SimStats stats = run_static(bench, MachineConfig::two_cluster());
  EXPECT_EQ(stats.copies_generated, 0u);
}

TEST(Core, RedefinitionRequiresFreshCopy) {
  // r1 redefined each iteration in cluster 0, consumed in cluster 1:
  // one copy per iteration (the replica dies with the old value).
  TestBench bench({alu(r(1), {r(1)}, 0), alu(r(2), {r(1)}, 1)}, 25);
  const SimStats stats = run_static(bench, MachineConfig::two_cluster());
  EXPECT_EQ(stats.copies_generated, 25u);
}

TEST(Core, CrossClusterDependencePaysCommunicationLatency) {
  // Serial chain alternating clusters vs staying local: alternating must be
  // slower by the copy (select + link) latency per hop.
  std::vector<MicroOp> local, alternating;
  for (int i = 0; i < 4; ++i) {
    local.push_back(alu(r(1), {r(1)}, 0));
    alternating.push_back(alu(r(1), {r(1)}, i % 2 ? 1 : 0));
  }
  TestBench local_bench(local, 30);
  TestBench alt_bench(alternating, 30);
  const MachineConfig cfg = MachineConfig::two_cluster();
  const SimStats local_stats = run_static(local_bench, cfg);
  const SimStats alt_stats = run_static(alt_bench, cfg);
  // 4 hops x 30 iterations, minus the very first read of r1 (an architected
  // cold value needs no copy).
  EXPECT_EQ(alt_stats.copies_generated, 119u);
  // Each hop adds at least 2 cycles (copy select + link) to the chain.
  EXPECT_GE(alt_stats.cycles, local_stats.cycles + 119 * 2);
}

TEST(Core, ColdLoadPaysMemoryLatency) {
  TestBench bench({load(r(1), r(0), 0), alu(r(2), {r(1)}, 0)});
  const MachineConfig cfg = MachineConfig::two_cluster();
  const SimStats stats = run_static(bench, cfg);
  EXPECT_GE(stats.cycles, cfg.memory_latency);
  EXPECT_EQ(stats.memory.l2_misses, 1u);
}

TEST(Core, WarmedLoadHitsL1) {
  TestBench bench({load(r(1), r(0), 0), alu(r(2), {r(1)}, 0)});
  const MachineConfig cfg = MachineConfig::two_cluster();
  ClusteredCore core(cfg, *bench.program);
  steer::StaticFollowerPolicy policy("test");
  const std::uint64_t warm[] = {0x1000};
  const SimStats stats = core.run(bench.trace, policy, warm);
  EXPECT_LT(stats.cycles, 40u);
  EXPECT_EQ(stats.memory.l1_hits, 1u);
}

TEST(Core, StoreToLoadForwarding) {
  // A store followed by a load of the same address: the load must not pay
  // the (cold) memory latency.
  MicroOp store;
  store.op = OpClass::kStore;
  store.num_srcs = 2;
  store.srcs[0] = r(0);
  store.srcs[1] = r(2);
  store.hint.static_cluster = 0;
  TestBench bench({store, load(r(1), r(0), 0), alu(r(3), {r(1)}, 0)});
  const MachineConfig cfg = MachineConfig::two_cluster();
  const SimStats stats = run_static(bench, cfg);
  EXPECT_LT(stats.cycles, 60u);
}

TEST(Core, UnpipelinedDividerSerialisesDivides) {
  TestBench div2({div(r(4), r(0), 0), div(r(5), r(1), 0)});
  TestBench div_split({div(r(4), r(0), 0), div(r(5), r(1), 1)});
  const MachineConfig cfg = MachineConfig::two_cluster();
  const SimStats same = run_static(div2, cfg);
  const SimStats split = run_static(div_split, cfg);
  // Same cluster: ~40 cycles of divide; split: ~20.
  EXPECT_GE(same.cycles, split.cycles + 15);
}

TEST(Core, AllocStallsWhenIqSaturated) {
  // A load miss feeds a long dependent chain; followers jam the 8-entry IQ.
  MachineConfig cfg = MachineConfig::two_cluster();
  cfg.iq_int_entries = 8;
  std::vector<MicroOp> uops{load(r(1), r(0), 0)};
  for (int i = 0; i < 11; ++i) uops.push_back(alu(r(1), {r(1)}, 0));
  TestBench bench(uops, 10);
  const SimStats stats = run_static(bench, cfg);
  EXPECT_GT(stats.alloc_stalls, 0u);
}

TEST(Core, RobStallsWhenRobTiny) {
  MachineConfig cfg = MachineConfig::two_cluster();
  cfg.rob_int_entries = 8;
  cfg.rob_fp_entries = 8;
  std::vector<MicroOp> uops{load(r(1), r(0), 0)};
  for (int i = 0; i < 6; ++i) {
    uops.push_back(alu(r(static_cast<std::uint8_t>(8 + i % 4)), {}, 0));
  }
  TestBench bench(uops, 20);
  const SimStats stats = run_static(bench, cfg);
  EXPECT_GT(stats.rob_stalls, 0u);
}

TEST(Core, LsqStallsWhenLsqTiny) {
  MachineConfig cfg = MachineConfig::two_cluster();
  cfg.lsq_entries = 2;
  std::vector<MicroOp> uops;
  for (int i = 0; i < 6; ++i) {
    uops.push_back(load(r(static_cast<std::uint8_t>(4 + i)), r(0), 0));
  }
  TestBench bench(uops, 10);
  const SimStats stats = run_static(bench, cfg);
  EXPECT_GT(stats.lsq_stalls, 0u);
}

TEST(Core, FpAndIntUseSeparateQueues) {
  // 3 INT + 3 FP independent ops per iteration: both decode budgets used,
  // ~1 iteration (6 uops) per cycle in steady state across 2 clusters.
  std::vector<MicroOp> uops;
  for (int i = 0; i < 3; ++i) {
    uops.push_back(alu(r(static_cast<std::uint8_t>(4 + i)), {}, i % 2));
    MicroOp fp;
    fp.op = OpClass::kFpAdd;
    fp.has_dst = true;
    fp.dst = f(static_cast<std::uint8_t>(4 + i));
    fp.hint.static_cluster = static_cast<std::int8_t>((i + 1) % 2);
    uops.push_back(fp);
  }
  TestBench bench(uops, 50);
  const SimStats stats = run_static(bench, MachineConfig::two_cluster());
  EXPECT_GE(stats.cycles, 50u);
  EXPECT_LE(stats.cycles, 80u);
}

TEST(Core, DeterministicAcrossRuns) {
  TestBench bench({alu(r(1), {r(1)}, 0), load(r(2), r(1), 1),
                   alu(r(3), {r(2), r(1)}, 1)},
                  30);
  const MachineConfig cfg = MachineConfig::two_cluster();
  const SimStats a = run_static(bench, cfg);
  const SimStats b = run_static(bench, cfg);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.copies_generated, b.copies_generated);
  EXPECT_EQ(a.alloc_stalls, b.alloc_stalls);
}

TEST(Core, RejectsInvalidConfig) {
  MachineConfig cfg = MachineConfig::two_cluster();
  cfg.num_clusters = 0;
  TestBench bench({alu(r(1), {}, 0)});
  EXPECT_DEATH(ClusteredCore(cfg, *bench.program), "");
}

// ----- paper §2.1: sequential vs parallel steering example -----

/// Follows static hints when present (the prologue that places R1/R2/R3),
/// and delegates unhinted micro-ops to an OP-style policy under test.
class HybridTestPolicy : public steer::SteeringPolicy {
 public:
  explicit HybridTestPolicy(std::unique_ptr<steer::SteeringPolicy> inner)
      : inner_(std::move(inner)) {}
  void begin_cycle(const steer::SteerView& view) override {
    inner_->begin_cycle(view);
  }
  steer::SteerDecision choose(const MicroOp& uop,
                              const steer::SteerView& view) override {
    if (uop.hint.has_static_cluster()) {
      return steer::SteerDecision::to(
          static_cast<std::uint32_t>(uop.hint.static_cluster));
    }
    return inner_->choose(uop, view);
  }
  void on_dispatched(const MicroOp& uop, std::uint32_t c) override {
    inner_->on_dispatched(uop, c);
  }
  void reset() override { inner_->reset(); }
  // Delegating wrappers must forward this, or the core skips the stale-view
  // bookkeeping the inner policy steers from.
  bool uses_stale_view() const override { return inner_->uses_stale_view(); }
  std::string name() const override { return "hybrid-test"; }

 private:
  std::unique_ptr<steer::SteeringPolicy> inner_;
};

/// The motif of §2.1: R1 lives in cluster 0, R2/R3 in cluster 1, then
///   I1: R1 <- R1 + R2 ; I2: R3 <- Load(R1) ; I3: R4 <- Load(R3).
/// Sequential steering keeps I1/I2/I3 together in cluster 1 (one copy, for
/// the incoming R1); the parallel implementation scatters them (three
/// copies). The paper quotes 0 vs 2 — it does not count I1's incoming
/// operand copy, which both variants pay; the *difference* of 2 is what the
/// example demonstrates and what we assert.
SimStats run_section21(bool parallel) {
  // The prologue fills exactly two decode cycles (3 INT micro-ops each), so
  // I1/I2/I3 form one decode bundle; the filler ops keep cluster 0 busier
  // than cluster 1 at that point ("cluster 1 is empty").
  std::vector<MicroOp> uops = {
      alu(r(1), {}, 0),   // prologue: R1 produced in cluster 0
      alu(r(2), {}, 1),   // prologue: R2 produced in cluster 1
      alu(r(3), {}, 1),   // prologue: R3 produced in cluster 1
      alu(r(8), {}, 0),   // filler load on cluster 0
      alu(r(9), {}, 0),
      alu(r(10), {}, 0),
      alu(r(1), {r(1), r(2)}),  // I1
      load(r(3), r(1)),         // I2
      load(r(4), r(3)),         // I3
  };
  TestBench bench(uops);
  MachineConfig cfg = MachineConfig::two_cluster();
  // Widen decode so copy micro-ops never exhaust the bundle's slots: the
  // example isolates the *information* difference between sequential and
  // parallel steering (on the Table 2 machine the extra copies would also
  // steal front-end bandwidth, which converts part of the penalty into a
  // dispatch stall — tested separately).
  cfg.decode_width_int = 8;
  ClusteredCore core(cfg, *bench.program);
  HybridTestPolicy policy(
      parallel ? std::make_unique<steer::ParallelOpPolicy>(cfg)
               : std::make_unique<steer::OpPolicy>(cfg));
  return core.run(bench.trace, policy);
}

TEST(Section21, SequentialSteeringAvoidsBundleCopies) {
  const SimStats stats = run_section21(/*parallel=*/false);
  // Only the copy bringing the old R1 into cluster 1 for I1.
  EXPECT_EQ(stats.copies_generated, 1u);
}

TEST(Section21, ParallelSteeringGeneratesTwoExtraCopies) {
  const SimStats seq = run_section21(/*parallel=*/false);
  const SimStats par = run_section21(/*parallel=*/true);
  EXPECT_EQ(par.copies_generated, seq.copies_generated + 2);
}

// ----- observer layer (sim/observer.hpp) -----

/// A cross-cluster bench with copies, stalls and both queues in play, so
/// every observer hook fires.
TestBench observer_bench() {
  return TestBench({alu(r(1), {r(0)}, 0), alu(r(2), {r(1)}, 1),
                    load(r(3), r(2), 0), alu(r(4), {r(3), r(1)}, 1)},
                   60);
}

template <Observer Obs>
SimStats run_observed(TestBench& bench, ClusteredCoreT<Obs>& core) {
  steer::StaticFollowerPolicy policy("test");
  return core.run(bench.trace, policy);
}

/// The timing-visible SimStats fields must be identical whichever observer
/// is attached: observers record, they never steer the simulation.
void expect_same_bits(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.committed_uops, b.committed_uops);
  EXPECT_EQ(a.dispatched_uops, b.dispatched_uops);
  EXPECT_EQ(a.copies_generated, b.copies_generated);
  EXPECT_EQ(a.copies_routed, b.copies_routed);
  EXPECT_EQ(a.copy_hops, b.copy_hops);
  EXPECT_EQ(a.alloc_stalls, b.alloc_stalls);
  EXPECT_EQ(a.policy_stalls, b.policy_stalls);
  EXPECT_EQ(a.rob_stalls, b.rob_stalls);
  EXPECT_EQ(a.lsq_stalls, b.lsq_stalls);
  EXPECT_EQ(a.frontend_empty, b.frontend_empty);
  EXPECT_EQ(a.dispatched_to, b.dispatched_to);
  EXPECT_EQ(a.memory.l1_hits, b.memory.l1_hits);
}

TEST(Observer, NullAndStatsAndCountingProduceIdenticalTiming) {
  TestBench bench = observer_bench();
  const MachineConfig cfg = MachineConfig::two_cluster();
  ClusteredCoreT<NullObserver> null_core(cfg, *bench.program);
  ClusteredCoreT<StatsObserver> stats_core(cfg, *bench.program);
  ClusteredCoreT<CountingObserver> counting_core(cfg, *bench.program);
  ClusteredCoreT<TimelineObserver> timeline_core(cfg, *bench.program);
  const SimStats null_stats = run_observed(bench, null_core);
  const SimStats stats_stats = run_observed(bench, stats_core);
  const SimStats counting_stats = run_observed(bench, counting_core);
  const SimStats timeline_stats = run_observed(bench, timeline_core);
  expect_same_bits(null_stats, stats_stats);
  expect_same_bits(null_stats, counting_stats);
  expect_same_bits(null_stats, timeline_stats);
}

TEST(Observer, OccupancyAccountingLivesInStatsObserver) {
  TestBench bench = observer_bench();
  const MachineConfig cfg = MachineConfig::two_cluster();
  ClusteredCoreT<NullObserver> null_core(cfg, *bench.program);
  ClusteredCoreT<StatsObserver> stats_core(cfg, *bench.program);
  const SimStats null_stats = run_observed(bench, null_core);
  const SimStats stats_stats = run_observed(bench, stats_core);
  // The accumulation moved out of the core loop: without an enabled
  // observer it simply does not happen.
  for (std::uint32_t c = 0; c < cfg.num_clusters; ++c) {
    EXPECT_EQ(null_stats.occupancy_sum[c], 0u);
  }
  EXPECT_GT(stats_stats.occupancy_sum[0] + stats_stats.occupancy_sum[1], 0u);
  // Histogram buckets partition the run's cycles, per cluster.
  const StatsObserver& obs = stats_core.observer();
  for (std::uint32_t c = 0; c < cfg.num_clusters; ++c) {
    std::uint64_t bucket_sum = 0;
    for (std::uint32_t b = 0; b < kOccupancyBuckets; ++b) {
      bucket_sum += obs.hist(c)[b];
    }
    EXPECT_EQ(bucket_sum, stats_stats.cycles);
  }
  // Steer provenance partitions the dispatched micro-ops.
  std::uint64_t steered = 0;
  for (std::uint32_t c = 0; c < cfg.num_clusters; ++c) {
    steered += obs.steered_with_copy(c) + obs.steered_local(c);
  }
  EXPECT_EQ(steered, stats_stats.dispatched_uops);
}

TEST(Observer, CountingObserverReconcilesWithSimStats) {
  TestBench bench = observer_bench();
  const MachineConfig cfg = MachineConfig::two_cluster();
  ClusteredCoreT<CountingObserver> core(cfg, *bench.program);
  const SimStats stats = run_observed(bench, core);
  const CountingObserver& c = core.observer();
  EXPECT_EQ(c.cycles, stats.cycles);
  EXPECT_EQ(c.steers, stats.dispatched_uops);
  EXPECT_EQ(c.commits, stats.committed_uops);
  EXPECT_EQ(c.issues, stats.dispatched_uops);  // every dispatch issues once
  EXPECT_EQ(c.fetches, bench.trace.size());
  EXPECT_EQ(c.copy_requests, stats.copies_generated);
  EXPECT_EQ(c.copy_injects, stats.copies_routed);
  using R = StallReason;
  auto by = [&](R reason) {
    return c.stalls_by_reason[static_cast<std::uint32_t>(reason)];
  };
  EXPECT_EQ(by(R::kFrontendEmpty), stats.frontend_empty);
  EXPECT_EQ(by(R::kRob), stats.rob_stalls);
  EXPECT_EQ(by(R::kLsq), stats.lsq_stalls);
  EXPECT_EQ(by(R::kPolicy), stats.policy_stalls);
  EXPECT_EQ(by(R::kAllocFull), stats.alloc_stalls);
  EXPECT_EQ(by(R::kRegfile), stats.regfile_stalls);
  EXPECT_EQ(by(R::kCopyQueue), stats.copyq_stalls);
  EXPECT_EQ(by(R::kCopyBandwidth), stats.copy_bandwidth_stalls);
  EXPECT_GT(c.copy_arrival_wakeups, 0u);  // the cross-cluster edges
}

TEST(Observer, RunBeginRearmsTheSink) {
  TestBench bench = observer_bench();
  const MachineConfig cfg = MachineConfig::two_cluster();
  ClusteredCoreT<CountingObserver> core(cfg, *bench.program);
  const SimStats first = run_observed(bench, core);
  EXPECT_EQ(core.observer().commits, first.committed_uops);
  const SimStats second = run_observed(bench, core);
  // Counts describe the latest run only, not the accumulated pair.
  EXPECT_EQ(core.observer().commits, second.committed_uops);
}

TEST(Observer, EventOrderingOnSerialChain) {
  // One serial dependence chain in one cluster: seq order == dependence
  // order, which pins down the relative event cycles exactly.
  std::vector<MicroOp> uops;
  for (int i = 0; i < 4; ++i) uops.push_back(alu(r(1), {r(1)}, 0));
  TestBench bench(uops, 25);
  const MachineConfig cfg = MachineConfig::two_cluster();
  ClusteredCoreT<TimelineObserver> core(cfg, *bench.program);
  const SimStats stats = run_observed(bench, core);
  const std::vector<TimelineObserver::Event> events =
      core.observer().events();

  std::vector<TimelineObserver::Event> steers, issues, commits, wakeups;
  for (const TimelineObserver::Event& e : events) {
    switch (e.kind) {
      case TimelineObserver::Kind::kSteer: steers.push_back(e); break;
      case TimelineObserver::Kind::kIssue: issues.push_back(e); break;
      case TimelineObserver::Kind::kCommit: commits.push_back(e); break;
      case TimelineObserver::Kind::kWakeup: wakeups.push_back(e); break;
      default: break;
    }
  }
  ASSERT_EQ(commits.size(), stats.committed_uops);
  ASSERT_EQ(issues.size(), stats.dispatched_uops);

  // Commit is in-order: strictly increasing seq, non-decreasing cycle.
  for (std::size_t i = 1; i < commits.size(); ++i) {
    EXPECT_EQ(commits[i].seq, commits[i - 1].seq + 1);
    EXPECT_GE(commits[i].cycle, commits[i - 1].cycle);
  }
  // Per micro-op: steered no later than issued, issued before committed.
  std::sort(issues.begin(), issues.end(),
            [](const auto& a, const auto& b) { return a.seq < b.seq; });
  for (std::size_t i = 0; i < commits.size(); ++i) {
    EXPECT_EQ(steers[i].seq, issues[i].seq);
    EXPECT_LE(steers[i].cycle, issues[i].cycle);
    EXPECT_LT(issues[i].cycle, commits[i].cycle);
    // Result publishes (aux = complete cycle) before the commit drains it.
    EXPECT_LT(issues[i].aux, commits[i].cycle);
  }
  // A dependent op issues no earlier than its producer's wakeup: on the
  // single serial chain the k-th issue consumes the (k-1)-th published
  // value.
  ASSERT_EQ(wakeups.size(), issues.size());  // every op publishes a value
  for (std::size_t i = 1; i < issues.size(); ++i) {
    EXPECT_GE(issues[i].cycle, wakeups[i - 1].cycle);
    EXPECT_FALSE(wakeups[i - 1].flags & TimelineObserver::kCopyArrival);
  }
}

TEST(Observer, TimelineWindowAndRingBounds) {
  TestBench bench = observer_bench();
  const MachineConfig cfg = MachineConfig::two_cluster();
  ClusteredCoreT<TimelineObserver> core(cfg, *bench.program);
  core.observer().set_window(10, 20);
  core.observer().set_capacity(8);
  const SimStats stats = run_observed(bench, core);
  const std::vector<TimelineObserver::Event> events =
      core.observer().events();
  EXPECT_LE(events.size(), 8u);
  for (const TimelineObserver::Event& e : events) {
    EXPECT_GE(e.cycle, 10u);
    EXPECT_LT(e.cycle, 30u);
  }
  for (const TimelineObserver::CycleSample& s :
       core.observer().cycle_samples()) {
    EXPECT_GE(s.cycle, 10u);
    EXPECT_LT(s.cycle, 30u);
  }
  // The ring dropped events, but the embedded counts still cover the whole
  // run — that is what reconciliation relies on.
  EXPECT_GT(core.observer().dropped(), 0u);
  EXPECT_EQ(core.observer().counts().commits, stats.committed_uops);
}

TEST(Observer, SteerEventsCarryPolicyScores) {
  TestBench bench = observer_bench();
  MachineConfig cfg = MachineConfig::two_cluster();
  ClusteredCoreT<TimelineObserver> core(cfg, *bench.program);
  steer::OpPolicy policy(cfg);
  const SimStats stats = core.run(bench.trace, policy);
  ASSERT_GT(stats.dispatched_uops, 0u);
  std::uint64_t scored = 0;
  for (const TimelineObserver::Event& e : core.observer().events()) {
    if (e.kind != TimelineObserver::Kind::kSteer) continue;
    if (e.num_scores == 0) continue;
    ++scored;
    EXPECT_EQ(e.num_scores, cfg.num_clusters);
  }
  // The OP policy votes per cluster on every non-trivial decision.
  EXPECT_GT(scored, 0u);
}

}  // namespace
}  // namespace vcsteer::sim
