// Tests for the Evaluator API (src/eval/) and the two-stage pruned sweep:
// the sim backend must be bit-identical to the historical direct path, the
// model backend must namespace its results away from simulation, and a
// pruned sweep's simulated frontier must carry the same bytes as the
// unpruned run.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "eval/model_evaluator.hpp"
#include "eval/sim_evaluator.hpp"
#include "exec/cache.hpp"
#include "exec/sweep.hpp"
#include "scratch_dir.hpp"
#include "steer/mod_policy.hpp"
#include "workload/profiles.hpp"

namespace vcsteer::eval {
namespace {

const workload::WorkloadProfile& smoke_profile() {
  const workload::WorkloadProfile* p = workload::find_profile("186.crafty");
  EXPECT_NE(p, nullptr);
  return *p;
}

EvalRequest smoke_request() {
  EvalRequest req;
  req.profile = smoke_profile();
  req.machine = MachineConfig::two_cluster();
  req.budget = harness::SimBudget::smoke();
  req.schemes = {harness::SchemeSpec{steer::Scheme::kOp, 0},
                 harness::SchemeSpec{steer::Scheme::kVc, 0}};
  return req;
}

TEST(Evaluator, SourceNames) {
  EXPECT_STREQ(source_name(Source::kSim), "sim");
  EXPECT_STREQ(source_name(Source::kModel), "model");
}

TEST(Evaluator, CacheKeyNamespacesBySource) {
  const harness::SchemeSpec spec{steer::Scheme::kOp, 0};
  const harness::SimBudget budget = harness::SimBudget::smoke();
  const MachineConfig machine = MachineConfig::two_cluster();
  const std::string plain =
      exec::cache_key(smoke_profile(), machine, spec, budget);
  // The default namespace is simulation: pre-existing call sites keep their
  // historical keys (warm caches stay warm across the API change).
  EXPECT_EQ(plain,
            exec::cache_key(smoke_profile(), machine, spec, budget, {}, "sim"));
  EXPECT_NE(plain, exec::cache_key(smoke_profile(), machine, spec, budget, {},
                                   "model"));
}

TEST(Evaluator, ResultRoundTripCarriesSource) {
  harness::RunResult r;
  r.trace = "t";
  r.scheme = "OP";
  r.source = "model";
  r.ipc = 1.5;
  r.committed_uops = 100;
  r.cycles = 66;
  const std::string text = exec::encode_result(r);
  harness::RunResult out;
  ASSERT_TRUE(exec::decode_result(text, &out));
  EXPECT_EQ(out.source, "model");

  // A pre-format-5 entry (no source field) must fail strict decode instead
  // of silently defaulting — the cache treats it as corrupt and
  // re-simulates.
  std::string legacy = text;
  const std::size_t pos = legacy.find("source=model\n");
  ASSERT_NE(pos, std::string::npos);
  legacy.erase(pos, std::string("source=model\n").size());
  EXPECT_FALSE(exec::decode_result(legacy, &out));
}

TEST(Evaluator, SimBackendIsBitIdenticalToDirectPath) {
  EvalRequest req = smoke_request();
  SimEvaluator sim;
  const EvalResponse resp = sim.evaluate(req);
  EXPECT_EQ(resp.experiments, 1u);

  harness::TraceExperiment direct(req.profile, req.machine, req.budget);
  const std::vector<harness::RunResult> expect =
      direct.evaluate(req.schemes);
  ASSERT_EQ(resp.results.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(exec::encode_result(resp.results[i]),
              exec::encode_result(expect[i]));
    EXPECT_EQ(resp.results[i].source, "sim");
  }
}

TEST(Evaluator, ModelBackendEstimatesAndMemoisesTraces) {
  EvalRequest req = smoke_request();
  ModelEvaluator model;
  const EvalResponse first = model.evaluate(req);
  ASSERT_EQ(first.results.size(), req.schemes.size());
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    const harness::RunResult& r = first.results[i];
    EXPECT_EQ(r.source, "model");
    EXPECT_EQ(r.scheme, req.schemes[i].label(req.machine));
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.committed_uops, 0u);
    EXPECT_GT(r.cycles, 0u);
  }
  EXPECT_EQ(first.experiments, 1u);

  // Same trace under a different machine: the materialised trace is reused
  // (machine only shapes the estimate, not the trace).
  EvalRequest req2 = smoke_request();
  req2.machine = MachineConfig::four_cluster();
  const EvalResponse second = model.evaluate(req2);
  EXPECT_EQ(second.experiments, 0u);
  // And the estimates are deterministic.
  const EvalResponse again = model.evaluate(req);
  ASSERT_EQ(again.results.size(), first.results.size());
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_EQ(exec::encode_result(again.results[i]),
              exec::encode_result(first.results[i]));
  }
}

// The trace memo matches the whole profile and budget, not just the name:
// a variant that shares a profile's name but changes its memory behaviour
// generates a different trace, so a shared evaluator must not serve it the
// first profile's trace.
TEST(Evaluator, ModelMemoSeparatesProfilesSharingAName) {
  const EvalRequest req = smoke_request();
  EvalRequest variant = smoke_request();
  variant.profile.working_set_kb *= 64;
  variant.profile.pointer_chase = 0.5;

  ModelEvaluator shared;
  const EvalResponse first = shared.evaluate(req);
  const EvalResponse second = shared.evaluate(variant);
  EXPECT_EQ(second.experiments, 1u);
  ModelEvaluator fresh;
  const EvalResponse expect = fresh.evaluate(variant);
  ASSERT_EQ(second.results.size(), expect.results.size());
  for (std::size_t i = 0; i < expect.results.size(); ++i) {
    EXPECT_EQ(second.results[i].cycles, expect.results[i].cycles);
    EXPECT_EQ(second.results[i].ipc, expect.results[i].ipc);
    EXPECT_NE(second.results[i].ipc, first.results[i].ipc);
  }
}

// The memo of one evaluator is invisible. Four threads share it over a grid
// that varies every input of every memo key: the replay's L1 size, L2 hit
// latency and memory latency; the passes' cluster count, link latency,
// topology (ring vs bus, which only topology-aware passes see) and issue
// width; and the walked scheme, with OP and parallel OP sharing a walk and
// a custom policy walking as OP. Every result must carry the bytes of a
// fresh evaluator scoring that one (cell, scheme) alone.
TEST(Evaluator, SharedModelMemoMatchesFreshEvaluators) {
  const auto smoke = workload::smoke_profiles();
  const std::vector<workload::WorkloadProfile> profiles = {smoke[0], smoke[1]};
  const harness::SimBudget budget{60'000, 10'000, 2};

  const MachineConfig two = MachineConfig::two_cluster();
  const MachineConfig four = MachineConfig::four_cluster();
  std::vector<MachineConfig> machines(10, two);
  machines[1].l1d.size_bytes = 8 * 1024;
  machines[2].l2.hit_latency = 30;
  machines[3].memory_latency = 200;
  machines[4] = four;
  machines[5].interconnect.link_latency = 2;
  machines[6] = four;
  machines[6].interconnect.kind = Topology::kRing;
  machines[7] = machines[6];
  machines[7].steer.topology_aware = true;
  machines[8] = machines[7];
  machines[8].interconnect.kind = Topology::kBus;
  machines[9].issue_width_int = 3;

  using steer::Scheme;
  std::vector<harness::SchemeRequest> schemes = {
      harness::SchemeSpec{Scheme::kOneCluster, 0},
      harness::SchemeSpec{Scheme::kOp, 0},
      harness::SchemeSpec{Scheme::kParallelOp, 0},
      harness::SchemeSpec{Scheme::kOb, 0},
      harness::SchemeSpec{Scheme::kRhop, 0},
      harness::SchemeSpec{Scheme::kVc, 0},
      harness::SchemeSpec{Scheme::kVc, 2},
      harness::SchemeSpec{Scheme::kVc, 0, 4},
  };
  schemes.emplace_back("MOD3", [](const MachineConfig&) {
    return std::make_unique<steer::ModNPolicy>(3);
  });

  const auto request_for = [&](std::size_t cell) {
    return EvalRequest{profiles[cell / machines.size()],
                       machines[cell % machines.size()], budget, schemes};
  };
  const std::size_t cells = profiles.size() * machines.size();
  ModelEvaluator shared;
  std::vector<EvalResponse> responses(cells);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&] {
      for (std::size_t c = next++; c < cells; c = next++) {
        responses[c] = shared.evaluate(request_for(c));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::size_t experiments = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    experiments += responses[c].experiments;
    ASSERT_EQ(responses[c].results.size(), schemes.size());
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      EvalRequest alone = request_for(c);
      alone.schemes = {schemes[s]};
      ModelEvaluator fresh;
      const EvalResponse expect = fresh.evaluate(alone);
      EXPECT_EQ(exec::encode_result(responses[c].results[s]),
                exec::encode_result(expect.results[0]))
          << "cell " << c << ", scheme " << s;
    }
  }
  EXPECT_EQ(experiments, profiles.size());
}

exec::SweepGrid small_grid() {
  exec::SweepGrid grid;
  const auto smoke = workload::smoke_profiles();
  grid.profiles = {smoke[0], smoke[1]};
  MachineConfig narrow = MachineConfig::two_cluster();
  narrow.iq_int_entries = 16;
  narrow.iq_fp_entries = 16;
  grid.machines = {MachineConfig::two_cluster(), narrow};
  grid.schemes = {harness::SchemeSpec{steer::Scheme::kOp, 0},
                  harness::SchemeSpec{steer::Scheme::kVc, 0}};
  grid.budget = harness::SimBudget::smoke();
  return grid;
}

TEST(PrunedSweep, FrontierIsByteIdenticalAndRestIsModelTagged) {
  const exec::SweepGrid grid = small_grid();
  exec::SweepOptions plain;
  plain.jobs = 2;
  const exec::SweepResult full = exec::run_sweep(grid, plain);
  EXPECT_FALSE(full.model.enabled);

  exec::SweepOptions pruned_opt = plain;
  pruned_opt.prune_top_k = 2;
  const exec::SweepResult pruned = exec::run_sweep(grid, pruned_opt);
  EXPECT_TRUE(pruned.model.enabled);
  EXPECT_EQ(pruned.model.top_k, 2u);
  // Stage 1 scored the whole grid.
  EXPECT_EQ(pruned.model.estimated, grid.profiles.size() *
                                        grid.machines.size() *
                                        grid.schemes.size());

  std::size_t sim_slots = 0;
  std::size_t model_slots = 0;
  for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
    for (std::size_t m = 0; m < grid.machines.size(); ++m) {
      for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
        const harness::RunResult& r = pruned.at(t, m, s);
        if (r.source == "sim") {
          // Frontier points: the same bytes an unpruned run produces.
          EXPECT_EQ(exec::encode_result(r),
                    exec::encode_result(full.at(t, m, s)));
          ++sim_slots;
        } else {
          EXPECT_EQ(r.source, "model");
          EXPECT_GT(r.ipc, 0.0);
          ++model_slots;
        }
      }
    }
  }
  // top-2 of the 4 (machine, scheme) configs, each simulated on both traces.
  EXPECT_EQ(sim_slots, 2 * grid.profiles.size());
  EXPECT_EQ(model_slots, pruned.model.pruned);
  EXPECT_EQ(pruned.simulated, sim_slots);
  EXPECT_GE(pruned.model.spearman, -1.0);
  EXPECT_LE(pruned.model.spearman, 1.0);
  EXPECT_LE(pruned.model.top3_overlap, 3u);
}

// A pruned sweep must not return estimates for a machine the simulator
// refuses. Here the invalid machine falls outside the top-2 frontier, so
// without validation up front it comes back as model-tagged points; an
// unpruned sweep would fail inside the core, partway through.
TEST(PrunedSweep, RejectsInvalidMachineBeforeEstimating) {
  exec::SweepGrid grid;
  const auto smoke = workload::smoke_profiles();
  grid.profiles = {smoke[0], smoke[1]};
  MachineConfig invalid = MachineConfig::two_cluster();
  invalid.iq_int_entries = 8;
  invalid.iq_fp_entries = 8;
  invalid.op_occupancy_threshold = 0;
  ASSERT_FALSE(invalid.validate().empty());
  grid.machines = {MachineConfig::four_cluster(), invalid};
  grid.schemes = {harness::SchemeSpec{steer::Scheme::kOp, 0},
                  harness::SchemeSpec{steer::Scheme::kVc, 0}};
  grid.budget = harness::SimBudget::smoke();
  exec::SweepOptions opt;
  opt.jobs = 1;
  opt.prune_top_k = 2;
  EXPECT_DEATH(exec::run_sweep(grid, opt),
               "grid machine 1 is invalid: op_occupancy_threshold");
  opt.prune_top_k = 0;
  EXPECT_DEATH(exec::run_sweep(grid, opt),
               "grid machine 1 is invalid: op_occupancy_threshold");
}

TEST(PrunedSweep, FrontierCoveringWholeGridReproducesUnprunedBytes) {
  const exec::SweepGrid grid = small_grid();
  exec::SweepOptions plain;
  plain.jobs = 2;
  const exec::SweepResult full = exec::run_sweep(grid, plain);

  exec::SweepOptions all_opt = plain;
  all_opt.prune_top_k = 999;  // >= every config: nothing is pruned
  const exec::SweepResult pruned = exec::run_sweep(grid, all_opt);
  EXPECT_EQ(pruned.model.pruned, 0u);
  ASSERT_EQ(pruned.num_points(), full.num_points());
  for (std::size_t i = 0; i < full.num_points(); ++i) {
    EXPECT_EQ(exec::encode_result(pruned.points()[i]),
              exec::encode_result(full.points()[i]));
  }
}

// A warm pruned re-run serves the frontier from the simulated entries and
// the rest from the model entries: each point counts as one hit.
TEST(PrunedSweep, WarmRerunServesEveryPointFromTheStore) {
  const exec::SweepGrid grid = small_grid();
  testing::ScratchDir dir;
  exec::SweepOptions opt;
  opt.jobs = 2;
  opt.prune_top_k = 2;
  opt.cache_dir = dir.path() + "/cache";
  const exec::SweepResult cold = exec::run_sweep(grid, opt);
  const exec::SweepResult warm = exec::run_sweep(grid, opt);
  EXPECT_EQ(warm.simulated, 0u);
  EXPECT_EQ(warm.cache_hits, warm.num_points());
  ASSERT_EQ(warm.num_points(), cold.num_points());
  for (std::size_t i = 0; i < cold.num_points(); ++i) {
    EXPECT_EQ(exec::encode_result(warm.points()[i]),
              exec::encode_result(cold.points()[i]));
  }
}

}  // namespace
}  // namespace vcsteer::eval
