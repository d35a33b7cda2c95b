// Tests for the Evaluator API (src/eval/) and the two-stage pruned sweep:
// the sim backend must be bit-identical to the historical direct path, the
// model backend must namespace its results away from simulation, and a
// pruned sweep's simulated frontier must carry the same bytes as the
// unpruned run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eval/model_evaluator.hpp"
#include "eval/sim_evaluator.hpp"
#include "exec/cache.hpp"
#include "exec/sweep.hpp"
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
      direct.evaluate(req.schemes, req.batch_lanes);
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

}  // namespace
}  // namespace vcsteer::eval
