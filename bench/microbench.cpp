// Microbenchmarks of the infrastructure itself (google-benchmark):
// simulator throughput (simulated micro-ops per second), the analytical
// model's walk (micro-ops walked per second), trace generation,
// PinPoints analysis, the multilevel partitioner, the software passes, and
// the exec layer (thread-pool dispatch, cache-key construction).
// These guard against performance regressions that would make the figure
// sweeps impractically slow.
#include <benchmark/benchmark.h>

#include <atomic>
#include <utility>

#include "compiler/ob_pass.hpp"
#include "compiler/rhop_pass.hpp"
#include "compiler/vc_pass.hpp"
#include "exec/cache.hpp"
#include "exec/thread_pool.hpp"
#include "graph/partition.hpp"
#include "harness/experiment.hpp"
#include "model/critpath.hpp"
#include "sim/core.hpp"
#include "sim/sim_context.hpp"
#include "sim/value_table.hpp"
#include "workload/pinpoints.hpp"
#include "workload/profiles.hpp"
#include "workload/trace.hpp"

namespace {

using namespace vcsteer;

const workload::WorkloadProfile& bench_profile() {
  return *workload::find_profile("186.crafty");
}

void BM_TraceGeneration(benchmark::State& state) {
  const workload::GeneratedWorkload wl = workload::generate(bench_profile());
  workload::TraceSource trace(wl);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

void BM_SimulatorThroughput(benchmark::State& state) {
  const workload::GeneratedWorkload wl = workload::generate(bench_profile());
  workload::TraceSource trace(wl);
  const auto entries = trace.take(50'000);
  const MachineConfig cfg = MachineConfig::two_cluster();
  sim::ClusteredCore core(cfg, wl.program);
  const auto policy = steer::make_policy(steer::Scheme::kOp, cfg);
  for (auto _ : state) {
    const sim::SimStats stats = core.run(entries, *policy);
    benchmark::DoNotOptimize(stats.cycles);
  }
  state.SetItemsProcessed(state.iterations() * 50'000);  // uops simulated
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

// Observer-layer overhead on the same trace: NullObserver must match the
// bare simulator (every hook site vanishes under if constexpr), and
// TimelineObserver shows the full cost of recording every event. Compare
// against BM_SimulatorThroughput (the StatsObserver default).
void BM_SimulatorThroughputNullObserver(benchmark::State& state) {
  const workload::GeneratedWorkload wl = workload::generate(bench_profile());
  workload::TraceSource trace(wl);
  const auto entries = trace.take(50'000);
  const MachineConfig cfg = MachineConfig::two_cluster();
  sim::ClusteredCoreT<sim::NullObserver> core(cfg, wl.program);
  const auto policy = steer::make_policy(steer::Scheme::kOp, cfg);
  for (auto _ : state) {
    const sim::SimStats stats = core.run(entries, *policy);
    benchmark::DoNotOptimize(stats.cycles);
  }
  state.SetItemsProcessed(state.iterations() * 50'000);  // uops simulated
}
BENCHMARK(BM_SimulatorThroughputNullObserver)->Unit(benchmark::kMillisecond);

void BM_SimulatorThroughputTimelineObserver(benchmark::State& state) {
  const workload::GeneratedWorkload wl = workload::generate(bench_profile());
  workload::TraceSource trace(wl);
  const auto entries = trace.take(50'000);
  const MachineConfig cfg = MachineConfig::two_cluster();
  sim::ClusteredCoreT<sim::TimelineObserver> core(cfg, wl.program);
  const auto policy = steer::make_policy(steer::Scheme::kOp, cfg);
  for (auto _ : state) {
    const sim::SimStats stats = core.run(entries, *policy);
    benchmark::DoNotOptimize(stats.cycles);
  }
  state.SetItemsProcessed(state.iterations() * 50'000);  // uops simulated
}
BENCHMARK(BM_SimulatorThroughputTimelineObserver)
    ->Unit(benchmark::kMillisecond);

// Analytical-model walk on the same 50k-uop trace as the simulator benches,
// so the two per-uop rates compare directly. A 4-cluster bus with 2-cycle
// links and one copy per link per cycle keeps every constraint pool in use
// (an ideal fabric would leave the link pools unconfigured). The memory
// replay is scheme-independent and runs once, outside the timed loop, as
// in eval::ModelEvaluator.
void BM_ModelEstimateInterval(benchmark::State& state) {
  const workload::GeneratedWorkload wl = workload::generate(bench_profile());
  workload::TraceSource trace(wl);
  const auto entries = trace.take(50'000);
  MachineConfig cfg = MachineConfig::four_cluster();
  cfg.interconnect.kind = Topology::kBus;
  cfg.interconnect.link_latency = 2;
  cfg.interconnect.copies_per_link_cycle = 1;
  const auto extra = model::memory_latencies(wl.program, entries, {}, cfg);
  for (auto _ : state) {
    const model::IntervalEstimate est = model::estimate_interval(
        wl.program, entries, extra, cfg, steer::Scheme::kOp);
    benchmark::DoNotOptimize(est.cycles);
  }
  state.SetItemsProcessed(state.iterations() * 50'000);  // uops walked
}
BENCHMARK(BM_ModelEstimateInterval);

/// Minimal one-uop program for the kernel microbenches: CoreState needs a
/// program reference but the isolated loops never fetch from it.
prog::Program kernel_program() {
  prog::ProgramBuilder builder("kernel");
  builder.begin_block();
  isa::MicroOp op;
  op.op = isa::OpClass::kIntAlu;
  builder.add(op);
  builder.end_block({{0, 1.0}});
  return std::move(builder).finish();
}

// Isolated wakeup/select kernel: fill one cluster's INT queue with entries
// each waiting on its own value, publish the values (wakeup -> seq-ordered
// ready-list insert), then drain the ready list at issue width (select).
// ns/op here is the per-entry cost of the event-driven path that replaced
// the per-slot full-queue scan.
void BM_WakeupSelect(benchmark::State& state) {
  const MachineConfig cfg = MachineConfig::two_cluster();
  const prog::Program program = kernel_program();
  sim::CoreState st(cfg, program);
  const std::uint32_t n = cfg.iq_int_entries;
  for (auto _ : state) {
    sim::ClusterState& cl = st.clusters[0];
    for (std::uint32_t i = 0; i < n; ++i) {
      const sim::Tag tag = st.alloc_value(0, false);
      const std::uint32_t slot = cl.iq_int.alloc();
      sim::IqEntry& e = cl.iq_int[slot];
      e.uop = 0;
      e.seq = i;
      e.num_srcs = 1;
      e.src_tags[0] = tag;
      e.waiting_srcs = 1;
      st.add_waiter(tag, 0, sim::WaiterKind::kIqInt, slot);
    }
    // Completion order tracks dispatch order in steady state; publish in
    // age order like the simulator does.
    for (std::uint32_t i = 0; i < n; ++i) {
      st.publish(static_cast<sim::Tag>(i), 0, 1);
    }
    std::uint32_t idx = cl.iq_int.ready_head();
    while (idx != sim::kNilIdx) {
      const std::uint32_t next = cl.iq_int[idx].ready_next;
      cl.iq_int.ready_remove(idx);
      cl.iq_int.release(idx);
      idx = next;
    }
    benchmark::DoNotOptimize(cl.iq_int.ready_head());
    st.reset();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WakeupSelect);

// Value-table churn: allocate and free tags through the slot-stable pool's
// free list, the per-dispatch cost of renaming. The table reaches its
// high-water mark once; after that alloc/release touch no allocator.
void BM_ValueTableChurn(benchmark::State& state) {
  const MachineConfig cfg = MachineConfig::two_cluster();
  const prog::Program program = kernel_program();
  sim::CoreState st(cfg, program);
  const int kBatch = 256;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      const sim::Tag tag = st.alloc_value(0, false);
      ++st.clusters[0].regs_used_int;  // release frees the home register
      st.release_value(tag);
    }
    benchmark::DoNotOptimize(st.values.size());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_ValueTableChurn);

// Churn on the SoA ValueTable directly: free-list alloc, availability
// publish (mark_avail), the steer-side mask probe, and free. Unlike
// BM_ValueTableChurn this bypasses CoreState's register-file accounting, so
// ns/op is the table itself — the byte-plane writes alloc touches and the
// guarded avail_cycle row it deliberately leaves dirty.
void BM_SoAValueTableChurn(benchmark::State& state) {
  sim::ValueTable table;
  const int kBatch = 256;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      const sim::Tag tag = table.alloc(/*home=*/0, /*fp=*/false);
      table.mark_avail(tag, 0, static_cast<std::uint64_t>(i) + 1);
      benchmark::DoNotOptimize(table.avail_mask(tag));
      table.free_tag(tag);
    }
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_SoAValueTableChurn);

// Arena reuse (SimContext) vs per-run core reconstruction: the same short
// trace simulated in a reused reset-in-place core and in a freshly built
// one. The gap is the allocation/initialisation cost a sweep pays per
// (trace, machine, scheme) point without the arena.
void BM_ArenaRunReused(benchmark::State& state) {
  const workload::GeneratedWorkload wl = workload::generate(bench_profile());
  workload::TraceSource trace(wl);
  const auto entries = trace.take(5'000);
  const MachineConfig cfg = MachineConfig::two_cluster();
  sim::SimContext ctx(cfg, wl.program);
  const auto policy = steer::make_policy(steer::Scheme::kOp, cfg);
  for (auto _ : state) {
    const sim::SimStats stats = ctx.core().run(entries, *policy);
    benchmark::DoNotOptimize(stats.cycles);
  }
  state.SetItemsProcessed(state.iterations() * 5'000);
}
BENCHMARK(BM_ArenaRunReused);

void BM_ArenaRunFresh(benchmark::State& state) {
  const workload::GeneratedWorkload wl = workload::generate(bench_profile());
  workload::TraceSource trace(wl);
  const auto entries = trace.take(5'000);
  const MachineConfig cfg = MachineConfig::two_cluster();
  const auto policy = steer::make_policy(steer::Scheme::kOp, cfg);
  for (auto _ : state) {
    sim::ClusteredCore core(cfg, wl.program);
    const sim::SimStats stats = core.run(entries, *policy);
    benchmark::DoNotOptimize(stats.cycles);
  }
  state.SetItemsProcessed(state.iterations() * 5'000);
}
BENCHMARK(BM_ArenaRunFresh);

void BM_PinPointsSelection(benchmark::State& state) {
  const workload::GeneratedWorkload wl = workload::generate(bench_profile());
  workload::TraceSource trace(wl);
  workload::PinPointsOptions opt;
  opt.total_uops = 200'000;
  opt.interval_uops = 20'000;
  opt.max_phases = 6;
  for (auto _ : state) {
    const auto points = workload::select_pinpoints(
        trace, wl.program.num_blocks(), opt, 42);
    benchmark::DoNotOptimize(points.size());
  }
  state.SetItemsProcessed(state.iterations() * opt.total_uops);
}
BENCHMARK(BM_PinPointsSelection)->Unit(benchmark::kMillisecond);

void BM_MultilevelPartition(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng build(42);
  graph::Digraph g(n);
  for (graph::NodeId u = 0; u < n; ++u) {
    for (int k = 0; k < 3; ++k) {
      const graph::NodeId v = static_cast<graph::NodeId>(build.below(n));
      if (v != u) g.add_edge(std::min(u, v), std::max(u, v), 1.0);
    }
  }
  const std::vector<double> w(n, 1.0);
  for (auto _ : state) {
    Rng rng(7);
    const auto result =
        graph::multilevel_partition(g, w, {.num_parts = 4}, rng);
    benchmark::DoNotOptimize(result.cut_weight);
  }
}
BENCHMARK(BM_MultilevelPartition)->Arg(64)->Arg(256)->Arg(1024);

void BM_VcPass(benchmark::State& state) {
  workload::GeneratedWorkload wl = workload::generate(bench_profile());
  compiler::VcOptions opt;
  opt.num_vcs = 2;
  for (auto _ : state) {
    wl.program.clear_hints();
    const auto stats = compiler::assign_virtual_clusters(wl.program, opt);
    benchmark::DoNotOptimize(stats.leaders);
  }
  state.SetItemsProcessed(state.iterations() * wl.program.num_uops());
}
BENCHMARK(BM_VcPass);

void BM_RhopPass(benchmark::State& state) {
  workload::GeneratedWorkload wl = workload::generate(bench_profile());
  compiler::RhopOptions opt;
  opt.num_clusters = 2;
  for (auto _ : state) {
    wl.program.clear_hints();
    const auto stats = compiler::assign_rhop(wl.program, opt);
    benchmark::DoNotOptimize(stats.total_cut_weight);
  }
  state.SetItemsProcessed(state.iterations() * wl.program.num_uops());
}
BENCHMARK(BM_RhopPass);

void BM_ObPass(benchmark::State& state) {
  workload::GeneratedWorkload wl = workload::generate(bench_profile());
  compiler::ObOptions opt;
  opt.num_clusters = 2;
  for (auto _ : state) {
    wl.program.clear_hints();
    const auto stats = compiler::assign_ob(wl.program, opt);
    benchmark::DoNotOptimize(stats.instructions);
  }
  state.SetItemsProcessed(state.iterations() * wl.program.num_uops());
}
BENCHMARK(BM_ObPass);

// Per-task overhead of the sweep executor's pool: submit a batch of trivial
// tasks and drain it. Simulation jobs are seconds long, so anything in the
// microsecond range per task is negligible — this guards that property.
void BM_ThreadPoolDispatch(benchmark::State& state) {
  const int kTasks = 256;
  for (auto _ : state) {
    std::atomic<int> done{0};
    exec::ThreadPool pool(static_cast<unsigned>(state.range(0)));
    std::vector<std::future<void>> futures;
    futures.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      futures.push_back(pool.submit([&done] { done.fetch_add(1); }));
    }
    for (auto& f : futures) f.get();
    benchmark::DoNotOptimize(done.load());
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(4);

// Cost of building a canonical cache key for one sweep point (paid once per
// point per run when --cache-dir is active).
void BM_CacheKey(benchmark::State& state) {
  const workload::WorkloadProfile& profile = bench_profile();
  const MachineConfig machine = MachineConfig::two_cluster();
  const harness::SchemeSpec spec{steer::Scheme::kVc, 2};
  const harness::SimBudget budget;
  for (auto _ : state) {
    const std::string key = exec::cache_key(profile, machine, spec, budget);
    benchmark::DoNotOptimize(key.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheKey);

}  // namespace

BENCHMARK_MAIN();
