// search-pruned: a model-pruned design-space search.
//
// 3 smoke traces x {2, 4} clusters x {ideal, bus, ring, crossbar} x IQ
// {16, 32, 64} x link latency {1, 2, 4} x 5 schemes = 1080 points at the
// smoke budget, through exec::run_sweep with jobs=4 and a top-8 frontier:
// the analytical model scores every point and the simulator runs only the
// frontier. The traced pass drives the same cells through the public calls
// the two stages make — for the model stage, the calls ModelEvaluator makes
// (trace memo, model::memory_latencies, harness::annotate_for_scheme,
// model::estimate_interval); for the frontier, SimEvaluator::evaluate — on
// four worker threads in run_sweep's order.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "eval/model_evaluator.hpp"
#include "eval/sim_evaluator.hpp"
#include "exec/sweep.hpp"
#include "model/critpath.hpp"
#include "workload/profiles.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace vcsteer;

constexpr unsigned kJobs = 4;
constexpr std::size_t kTopK = 8;
/// Slowest repetition observed (4-vCPU Xeon VM), which sizes the count.
constexpr double kSlowestRepS = 10.0;

exec::SweepGrid make_grid() {
  exec::SweepGrid grid;
  const auto smoke = workload::smoke_profiles();
  grid.profiles.assign(smoke.begin(), smoke.begin() + 3);
  for (const std::uint32_t clusters : {2u, 4u}) {
    for (const Topology topo : {Topology::kIdeal, Topology::kBus,
                                Topology::kRing, Topology::kCrossbar}) {
      for (const std::uint32_t iq : {16u, 32u, 64u}) {
        for (const std::uint32_t link : {1u, 2u, 4u}) {
          MachineConfig machine = clusters == 2 ? MachineConfig::two_cluster()
                                                : MachineConfig::four_cluster();
          machine.interconnect.kind = topo;
          machine.iq_int_entries = iq;
          machine.iq_fp_entries = iq;
          machine.interconnect.link_latency = link;
          grid.machines.push_back(machine);
        }
      }
    }
  }
  using steer::Scheme;
  grid.schemes = {harness::SchemeSpec{Scheme::kOp, 0},
                  harness::SchemeSpec{Scheme::kOb, 0},
                  harness::SchemeSpec{Scheme::kRhop, 0},
                  harness::SchemeSpec{Scheme::kVc, 2},
                  harness::SchemeSpec{Scheme::kParallelOp, 0}};
  grid.budget = harness::SimBudget::smoke();
  return grid;
}

exec::SweepOptions sweep_options(std::uint64_t seed) {
  exec::SweepOptions opt;
  opt.jobs = kJobs;
  opt.seed_salt = seed;
  opt.prune_top_k = kTopK;
  return opt;
}

/// Runs `body(index, worker)` for index 0..n-1 on kJobs threads, handing
/// out indices in order like run_sweep's FIFO pool.
template <typename F>
void parallel_for(std::size_t n, F&& body) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < kJobs; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        body(i, w);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace

Outcome search_pruned(const RunConfig& cfg) {
  Outcome out;
  // Set-up is repeated before every repetition, so its timing samples the
  // same host conditions as the repetitions do.
  exec::SweepGrid grid;
  std::uint64_t fingerprint = 0;
  std::vector<double> setups;
  const exec::SweepOptions opt = sweep_options(cfg.seed);

  std::vector<harness::RunResult> points;
  std::uint64_t first_digest = 0;
  std::size_t simulated = 0;
  const std::size_t reps = rep_count(cfg.seconds, kSlowestRepS);
  const std::vector<double> walls = timed_reps(reps, [&] {
    time_setups(3, 1, &setups, [&] {
      grid = make_grid();
      fingerprint = exec::grid_fingerprint(grid, cfg.seed);
    });
    const Clock::time_point t0 = Clock::now();
    const exec::SweepResult r = exec::run_sweep(grid, opt);
    const double wall = seconds_since(t0);
    points = r.points();
    simulated = r.simulated;
    out.checks.expect(r.model.estimated == r.num_points() &&
                          r.model.pruned + r.simulated == r.num_points() &&
                          r.simulated == kTopK * grid.profiles.size(),
                      "search-pruned: model scored every point and the "
                      "simulator ran exactly the frontier");
    const std::uint64_t digest = digest_results(kDigestSeed, points);
    if (first_digest == 0) first_digest = digest;
    out.checks.expect(digest == first_digest,
                      "search-pruned: repetitions produce identical results");
    return wall;
  });

  // Frontier check: each simulated point equals a direct SimEvaluator
  // evaluation of its cell; the model's error is measured on the same cells.
  eval::SimEvaluator sim;
  eval::ModelEvaluator model;
  std::vector<double> err_pct;
  const std::size_t nm = grid.machines.size(), ns = grid.schemes.size();
  for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
    for (std::size_t m = 0; m < nm; ++m) {
      eval::EvalRequest request{salted(grid.profiles[t], cfg.seed),
                                grid.machines[m], grid.budget, {}, 1};
      std::vector<std::size_t> frontier;
      for (std::size_t s = 0; s < ns; ++s) {
        if (points[(t * nm + m) * ns + s].source == "sim") {
          frontier.push_back(s);
          request.schemes.push_back(grid.schemes[s]);
        }
      }
      if (frontier.empty()) continue;
      const eval::EvalResponse direct = sim.evaluate(request);
      const eval::EvalResponse estimate = model.evaluate(request);
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        const harness::RunResult& swept = points[(t * nm + m) * ns + frontier[i]];
        out.checks.expect(
            exec::encode_result(direct.results[i]) ==
                exec::encode_result(swept),
            "search-pruned: frontier point equals a direct SimEvaluator run");
        err_pct.push_back(100.0 *
                          std::fabs(estimate.results[i].ipc - swept.ipc) /
                          swept.ipc);
      }
    }
  }

  out.digest = first_digest;
  const double wall = fastest(walls);
  const double mean_err =
      std::accumulate(err_pct.begin(), err_pct.end(), 0.0) /
      static_cast<double>(std::max<std::size_t>(err_pct.size(), 1));
  out.metric("wall_s", wall, "s");
  out.metric("points_per_s", static_cast<double>(points.size()) / wall, "1/s");
  out.metric("setup_s", median(setups), "s");
  out.metric("wall_median_s", median(walls), "s");
  out.metric("model_ipc_err_pct", mean_err, "%");
  out.metric("sim_fraction",
             static_cast<double>(simulated) / static_cast<double>(points.size()),
             "ratio");
  out.metric("reps", static_cast<double>(walls.size()), "count");
  out.notes.push_back(rep_walls(walls));
  char line[256];
  std::snprintf(line, sizeof(line),
                "model_ipc_err_pct %.4f %% over %zu frontier points buys "
                "points_per_s %.2f 1/s (%zu of %zu points simulated); "
                "search id %s",
                mean_err, err_pct.size(),
                static_cast<double>(points.size()) / wall, simulated,
                points.size(), hex64(fingerprint).c_str());
  out.notes.push_back(line);
  out.notes.push_back(
      "the model has no hardware reference: model_ipc_err_pct is against the "
      "simulator, and no hardware error figure is given");
  return out;
}

Outcome search_pruned_traced(const RunConfig& cfg, TracedRun* run) {
  Outcome out;
  const exec::SweepGrid grid = make_grid();
  const exec::SweepOptions opt = sweep_options(cfg.seed);

  const Clock::time_point u0 = Clock::now();
  const exec::SweepResult reference = exec::run_sweep(grid, opt);
  const double untraced_wall = seconds_since(u0);
  const std::uint64_t untraced_digest =
      digest_results(kDigestSeed, reference.points());

  const std::size_t nt = grid.profiles.size(), nm = grid.machines.size(),
                    ns = grid.schemes.size();
  const Clock::time_point epoch = Clock::now();
  SpanLog main_log(0, epoch);
  std::vector<std::unique_ptr<SpanLog>> logs;
  for (unsigned w = 0; w < kJobs; ++w) {
    logs.push_back(std::make_unique<SpanLog>(w + 1, epoch));
  }
  std::vector<std::uint64_t> uops_walked(kJobs, 0);

  const std::uint64_t root = main_log.begin("search-pruned", 0);

  // Stage 1: the model scores every cell. Trace data is memoised per trace
  // and built by the first cell that needs it, as ModelEvaluator does.
  struct Memo {
    std::mutex mutex;
    std::unique_ptr<harness::TraceExperiment> experiment;
  };
  std::vector<Memo> memo(nt);
  std::vector<harness::RunResult> model_points(nt * nm * ns);
  std::atomic<std::size_t> bad_walks{0};
  parallel_for(nt * nm, [&](std::size_t c, unsigned w) {
    SpanLog& log = *logs[w];
    const std::size_t t = c / nm, m = c % nm;
    const std::uint64_t cell_id = c + 1;
    const Scope cell(log, "eval.model_cell", root, cell_id);
    const workload::WorkloadProfile profile = salted(grid.profiles[t], cfg.seed);
    const MachineConfig& machine = grid.machines[m];
    const harness::TraceExperiment* experiment = nullptr;
    {
      std::lock_guard<std::mutex> lock(memo[t].mutex);
      if (!memo[t].experiment) {
        const Scope span(log, "workload.trace_build", cell.id(), cell_id);
        memo[t].experiment = std::make_unique<harness::TraceExperiment>(
            profile, machine, grid.budget);
      }
      experiment = memo[t].experiment.get();
    }
    const auto& simpoints = experiment->simpoints();
    const auto& intervals = experiment->intervals();
    std::vector<std::vector<std::uint32_t>> load_extra(simpoints.size());
    for (std::size_t p = 0; p < simpoints.size(); ++p) {
      const Scope span(log, "model.memlat", cell.id(), cell_id);
      load_extra[p] = model::memory_latencies(experiment->workload().program,
                                              intervals[p],
                                              experiment->warm_addrs()[p],
                                              machine);
    }
    for (std::size_t s = 0; s < ns; ++s) {
      const harness::SchemeSpec& spec = grid.schemes[s].spec;
      prog::Program program = experiment->workload().program;
      {
        const Scope span(log,
                         "compiler.annotate." + scheme_kind(spec.scheme),
                         cell.id(), cell_id);
        harness::annotate_for_scheme(program, spec, machine);
      }
      // Same aggregation, in the same order, as ModelEvaluator.
      double w_cycles = 0, w_uops = 0, w_copies = 0, w_hops = 0;
      harness::RunResult result;
      result.trace = profile.name;
      result.scheme = grid.schemes[s].label(machine);
      result.source = eval::source_name(eval::Source::kModel);
      result.num_points = simpoints.size();
      result.num_clusters = machine.num_clusters;
      for (std::size_t p = 0; p < simpoints.size(); ++p) {
        model::IntervalEstimate est;
        {
          const Scope span(log, "model.walk", cell.id(), cell_id);
          est = model::estimate_interval(program, intervals[p], load_extra[p],
                                         machine, spec.scheme);
        }
        uops_walked[w] += est.committed_uops;
        const double weight = simpoints[p].weight;
        w_cycles += weight * static_cast<double>(est.cycles);
        w_uops += weight * static_cast<double>(est.committed_uops);
        w_copies += weight * static_cast<double>(est.copies);
        w_hops += weight * static_cast<double>(est.copy_hops);
        result.committed_uops += est.committed_uops;
        result.cycles += est.cycles;
      }
      if (!(w_cycles > 0.0 && w_uops > 0.0)) bad_walks.fetch_add(1);
      result.ipc = w_uops / w_cycles;
      result.copies_per_kuop = 1000.0 * w_copies / w_uops;
      result.copy_hops_per_kuop = 1000.0 * w_hops / w_uops;
      model_points[c * ns + s] = std::move(result);
    }
  });
  out.checks.expect(bad_walks.load() == 0,
                    "search-pruned: every model walk committed work");

  // Rank (machine, scheme) configs by mean model IPC; top-K is the frontier.
  std::vector<std::vector<std::size_t>> frontier(nm);
  {
    const Scope span(main_log, "exec.rank", root);
    std::vector<double> score(nm * ns, 0.0);
    for (std::size_t m = 0; m < nm; ++m) {
      for (std::size_t s = 0; s < ns; ++s) {
        double sum = 0;
        for (std::size_t t = 0; t < nt; ++t) {
          sum += model_points[(t * nm + m) * ns + s].ipc;
        }
        score[m * ns + s] = sum / static_cast<double>(nt);
      }
    }
    std::vector<std::size_t> order(nm * ns);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return score[a] > score[b];
                     });
    for (std::size_t i = 0; i < std::min(kTopK, order.size()); ++i) {
      frontier[order[i] / ns].push_back(order[i] % ns);
    }
    for (auto& schemes : frontier) std::sort(schemes.begin(), schemes.end());
  }

  // Stage 2: the simulator runs the frontier cells.
  std::vector<std::size_t> sim_cells;
  for (std::size_t t = 0; t < nt; ++t) {
    for (std::size_t m = 0; m < nm; ++m) {
      if (!frontier[m].empty()) sim_cells.push_back(t * nm + m);
    }
  }
  std::vector<harness::RunResult> points = model_points;
  const std::uint32_t lanes = exec::resolve_batch_lanes(0);
  eval::SimEvaluator sim;
  parallel_for(sim_cells.size(), [&](std::size_t i, unsigned w) {
    SpanLog& log = *logs[w];
    const std::size_t c = sim_cells[i];
    const std::size_t t = c / nm, m = c % nm;
    const std::uint64_t cell_id = nt * nm + c + 1;
    const Scope cell(log, "eval.sim_cell", root, cell_id);
    eval::EvalRequest request{salted(grid.profiles[t], cfg.seed),
                              grid.machines[m], grid.budget, {}, lanes};
    for (const std::size_t s : frontier[m]) {
      request.schemes.push_back(grid.schemes[s]);
    }
    eval::EvalResponse response = sim.evaluate(request);
    for (std::size_t k = 0; k < frontier[m].size(); ++k) {
      points[c * ns + frontier[m][k]] = std::move(response.results[k]);
    }
  });
  main_log.end(root);
  const double traced_wall = main_log.seconds(root);

  const std::uint64_t digest = digest_results(kDigestSeed, points);
  out.checks.expect(digest == untraced_digest,
                    "search-pruned: traced results equal untraced results");
  out.digest = digest;

  std::vector<Span> spans = std::move(main_log.spans());
  for (auto& log : logs) {
    for (Span& s : log->spans()) spans.push_back(std::move(s));
  }
  std::uint64_t walked = 0;
  for (const std::uint64_t u : uops_walked) walked += u;
  const auto mean_ms = [&](const std::string& name) {
    const std::vector<double> d = durations(spans, name);
    double sum = 0;
    for (const double x : d) sum += x;
    return d.empty() ? 0.0 : 1e3 * sum / static_cast<double>(d.size());
  };
  for (const char* kind : {"ob", "rhop", "vc"}) {
    out.layer(std::string("compiler.annotate_ms.") + kind,
              mean_ms(std::string("compiler.annotate.") + kind), "ms");
  }
  out.layer("model.memlat_ms_per_point", mean_ms("model.memlat"), "ms");
  out.layer("model.walk_kuops_per_s",
            static_cast<double>(walked) / 1000.0 /
                total_seconds(spans, "model.walk"),
            "kuops/s");
  out.layer("model.uops_walked", static_cast<double>(walked), "count");
  out.layer("eval.model_cell_ms", mean_ms("eval.model_cell"), "ms");
  out.layer("eval.sim_cell_ms", mean_ms("eval.sim_cell"), "ms");
  std::size_t simulated = 0;
  for (const auto& schemes : frontier) simulated += schemes.size() * nt;
  out.layer("search.sim_fraction",
            static_cast<double>(simulated) / static_cast<double>(points.size()),
            "ratio");
  out.metric("wall_s", untraced_wall, "s");
  out.metric("traced_wall_s", traced_wall, "s");

  run->workload = "search-pruned";
  run->root = root;
  run->spans = std::move(spans);
  return out;
}

}  // namespace perfbench
