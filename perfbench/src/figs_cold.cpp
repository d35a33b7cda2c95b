// figs-cold: the paper's own experiment, run cold.
//
// The Fig 5 grid (two_cluster x {OP, one-cluster, OB, RHOP, VC}) and the
// Fig 7 grid (four_cluster x {OP, OB, RHOP, VC(4->4), VC(2->4)}) over the six
// smoke traces at the default SimBudget, each through exec::run_sweep with
// jobs=1 into a fresh on-disk ResultCache, so every point is simulated and
// written. The traced pass drives the same cells through the public calls
// run_sweep makes (cache probe, TraceExperiment construction, evaluate,
// cache store), in run_sweep's order.
#include <cmath>
#include <map>
#include <memory>

#include "exec/cache.hpp"
#include "exec/sweep.hpp"
#include "stats/table.hpp"
#include "workload/profiles.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace vcsteer;

/// Slowest repetition observed (4-vCPU Xeon VM), which sizes the count.
constexpr double kSlowestRepS = 5.0;

struct Grids {
  exec::SweepGrid fig5, fig7;
};

Grids make_grids() {
  Grids g;
  const auto smoke = workload::smoke_profiles();
  for (exec::SweepGrid* grid : {&g.fig5, &g.fig7}) {
    grid->profiles.assign(smoke.begin(), smoke.end());
    grid->budget = harness::SimBudget{};
  }
  using steer::Scheme;
  g.fig5.machines = {MachineConfig::two_cluster()};
  g.fig5.schemes = {harness::SchemeSpec{Scheme::kOp, 0},
                    harness::SchemeSpec{Scheme::kOneCluster, 0},
                    harness::SchemeSpec{Scheme::kOb, 0},
                    harness::SchemeSpec{Scheme::kRhop, 0},
                    harness::SchemeSpec{Scheme::kVc, 2}};
  g.fig7.machines = {MachineConfig::four_cluster()};
  g.fig7.schemes = {harness::SchemeSpec{Scheme::kOp, 0},
                    harness::SchemeSpec{Scheme::kOb, 0},
                    harness::SchemeSpec{Scheme::kRhop, 0},
                    harness::SchemeSpec{Scheme::kVc, 4},
                    harness::SchemeSpec{Scheme::kVc, 2}};
  return g;
}

/// Paper Fig 5(c) / 7(c) CPU2000 average slowdowns vs OP (%), for schemes
/// 1..4 of each grid.
constexpr double kFig5Paper[4] = {12.19, 6.50, 5.40, 2.62};
constexpr double kFig7Paper[4] = {12.45, 12.69, 12.96, 3.64};

/// Mean |measured average slowdown - paper average| over both figures'
/// eight non-baseline schemes, in percentage points.
double paper_gap_pp(const std::vector<harness::RunResult>& fig5,
                    const std::vector<harness::RunResult>& fig7,
                    std::size_t traces) {
  double gap = 0;
  const auto add = [&](const std::vector<harness::RunResult>& points,
                       const double* paper) {
    for (std::size_t s = 1; s <= 4; ++s) {
      std::vector<double> slow;
      for (std::size_t t = 0; t < traces; ++t) {
        slow.push_back(
            stats::slowdown_pct(points[t * 5].ipc, points[t * 5 + s].ipc));
      }
      gap += std::fabs(stats::mean(slow) - paper[s - 1]);
    }
  };
  add(fig5, kFig5Paper);
  add(fig7, kFig7Paper);
  return gap / 8.0;
}

/// State one pass sets up before timing.
struct Setup {
  Grids grids;
  std::vector<std::string> keys5, keys7;
  std::string cache_dir;
};

Setup set_up(const RunConfig& cfg) {
  Setup s;
  s.grids = make_grids();
  s.keys5 = grid_keys(s.grids.fig5, cfg.seed);
  s.keys7 = grid_keys(s.grids.fig7, cfg.seed);
  s.cache_dir = cfg.work_dir + "/figs-cache";
  const exec::ResultCache cache(s.cache_dir);  // creates the directory
  return s;
}

std::uint64_t committed_uops(const std::vector<harness::RunResult>& rs) {
  std::uint64_t sum = 0;
  for (const harness::RunResult& r : rs) sum += r.committed_uops;
  return sum;
}

/// Every point of both grids reads back from the cache equal to its
/// in-memory result. `on_lookup` times each lookup when tracing.
template <typename Lookup>
void check_readback(const exec::ResultCache& cache,
                    const std::vector<std::string>& keys,
                    const std::vector<harness::RunResult>& points,
                    Checks* checks, Lookup&& timed_lookup) {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    harness::RunResult back;
    const exec::CacheLookup looked = timed_lookup(cache, keys[i], &back);
    checks->expect(looked == exec::CacheLookup::kHit &&
                       exec::encode_result(back) ==
                           exec::encode_result(points[i]),
                   "figs-cold: cached point " + std::to_string(i) +
                       " reads back equal to its RunResult");
  }
}

}  // namespace

Outcome figs_cold(const RunConfig& cfg) {
  Outcome out;
  // Set-up is repeated before every repetition, so its timing samples the
  // same host conditions as the repetitions do.
  Setup setup;
  std::vector<double> setups;
  exec::SweepOptions opt;
  opt.jobs = 1;
  opt.seed_salt = cfg.seed;

  std::vector<harness::RunResult> fig5, fig7;
  std::uint64_t first_digest = 0;
  const std::size_t reps = rep_count(cfg.seconds, kSlowestRepS);
  const std::vector<double> walls = timed_reps(reps, [&] {
    time_setups(3, 10, &setups, [&] { setup = set_up(cfg); });
    opt.cache_dir = setup.cache_dir;
    fresh_dir(setup.cache_dir);
    const Clock::time_point t0 = Clock::now();
    const exec::SweepResult r5 = exec::run_sweep(setup.grids.fig5, opt);
    const exec::SweepResult r7 = exec::run_sweep(setup.grids.fig7, opt);
    const double wall = seconds_since(t0);
    fig5 = r5.points();
    fig7 = r7.points();
    const std::size_t points = r5.num_points() + r7.num_points();
    out.checks.expect(r5.simulated + r7.simulated == points &&
                          r5.cache_hits + r7.cache_hits == 0,
                      "figs-cold: every point simulated cold");
    const std::uint64_t digest =
        digest_results(digest_results(kDigestSeed, fig5), fig7);
    if (first_digest == 0) first_digest = digest;
    out.checks.expect(digest == first_digest,
                      "figs-cold: repetitions produce identical results");
    return wall;
  });

  const exec::ResultCache cache(setup.cache_dir);
  const auto lookup = [](const exec::ResultCache& c, const std::string& key,
                         harness::RunResult* back) { return c.lookup(key, back); };
  check_readback(cache, setup.keys5, fig5, &out.checks, lookup);
  check_readback(cache, setup.keys7, fig7, &out.checks, lookup);

  out.digest = first_digest;
  const std::size_t points = fig5.size() + fig7.size();
  const double wall = fastest(walls);
  out.metric("wall_s", wall, "s");
  out.metric("points_per_s", static_cast<double>(points) / wall, "1/s");
  out.metric("setup_s", median(setups), "s");
  out.metric("sim_kuops_per_s",
             static_cast<double>(committed_uops(fig5) + committed_uops(fig7)) /
                 1000.0 / wall,
             "kuops/s");
  out.metric("wall_median_s", median(walls), "s");
  const double gap =
      paper_gap_pp(fig5, fig7, setup.grids.fig5.profiles.size());
  out.metric("paper_gap_pp", gap, "pp");
  out.metric("reps", static_cast<double>(walls.size()), "count");
  out.notes.push_back(rep_walls(walls));
  out.notes.push_back(
      "paper_gap_pp is measured on the 6-trace smoke subset at the default "
      "budget, not on the paper's 40-trace Fig 5(c)/7(c) averages");
  return out;
}

Outcome figs_cold_traced(const RunConfig& cfg, TracedRun* run) {
  Outcome out;
  Setup setup = set_up(cfg);
  fresh_dir(setup.cache_dir);

  // Untraced reference repetition: the overhead baseline and the digest the
  // traced repetition must reproduce.
  exec::SweepOptions opt;
  opt.jobs = 1;
  opt.cache_dir = setup.cache_dir;
  opt.seed_salt = cfg.seed;
  const Clock::time_point u0 = Clock::now();
  const exec::SweepResult r5 = exec::run_sweep(setup.grids.fig5, opt);
  const exec::SweepResult r7 = exec::run_sweep(setup.grids.fig7, opt);
  const double untraced_wall = seconds_since(u0);
  // run_sweep's own time: its wall minus the phases it accounts to its calls
  // into the layers below (trace build, annotate, warm-up, simulate, cache).
  double phase_s = 0;
  for (const exec::SweepResult* r : {&r5, &r7}) {
    phase_s += r->phases.trace_build + r->phases.annotate + r->phases.warmup +
               r->phases.simulate + r->phases.cache_io;
  }
  const std::uint64_t untraced_digest =
      digest_results(digest_results(kDigestSeed, r5.points()), r7.points());

  // Traced repetition into a fresh cache.
  fresh_dir(setup.cache_dir);
  const exec::ResultCache cache(setup.cache_dir);
  const std::uint32_t lanes = exec::resolve_batch_lanes(0);
  const Clock::time_point epoch = Clock::now();
  SpanLog log(0, epoch);
  std::uint64_t cell_id = 0;
  std::size_t corrupt = 0;
  double warmup_s = 0;
  // Per cluster count: committed uops and evaluate seconds.
  std::map<std::uint32_t, std::pair<double, double>> by_clusters;
  // Per scheme kind: committed uops and simulate seconds.
  std::map<std::string, std::pair<double, double>> by_scheme;
  std::uint64_t cycles = 0, uops = 0;
  double copies = 0;

  const auto traced_grid = [&](const exec::SweepGrid& grid,
                               std::uint64_t parent) {
    std::vector<harness::RunResult> points;
    for (const workload::WorkloadProfile& base : grid.profiles) {
      const workload::WorkloadProfile profile = salted(base, cfg.seed);
      for (const MachineConfig& machine : grid.machines) {
        const Scope cell(log, "exec.cell", parent, ++cell_id);
        std::vector<std::string> keys;
        for (const exec::SweepScheme& scheme : grid.schemes) {
          keys.push_back(exec::cache_key(profile, machine, scheme.spec,
                                         grid.budget, scheme.custom_tag));
          harness::RunResult probe;
          const Scope span(log, "exec.lookup", cell.id(), cell_id);
          if (cache.lookup(keys.back(), &probe) == exec::CacheLookup::kCorrupt) {
            ++corrupt;
          }
        }
        std::unique_ptr<harness::TraceExperiment> experiment;
        {
          const Scope span(log, "workload.trace_build", cell.id(), cell_id);
          experiment = std::make_unique<harness::TraceExperiment>(
              profile, machine, grid.budget);
        }
        std::vector<harness::RunResult> results;
        const std::uint64_t eval_id =
            log.begin("sim.evaluate", cell.id(), cell_id);
        results = experiment->evaluate(grid.schemes, lanes);
        log.end(eval_id);

        warmup_s += experiment->phases().warmup_s;
        auto& cl = by_clusters[machine.num_clusters];
        for (std::size_t s = 0; s < results.size(); ++s) {
          const harness::RunResult& r = results[s];
          cl.first += static_cast<double>(r.committed_uops);
          cycles += r.cycles;
          uops += r.committed_uops;
          copies += r.copies_per_kuop * static_cast<double>(r.committed_uops);
          auto& sc = by_scheme[scheme_kind(grid.schemes[s].spec.scheme)];
          sc.first += static_cast<double>(r.committed_uops);
          sc.second += experiment->scheme_simulate_s().at(r.scheme);
        }
        cl.second += log.seconds(eval_id);
        for (std::size_t s = 0; s < results.size(); ++s) {
          const Scope span(log, "exec.store", cell.id(), cell_id);
          cache.store(keys[s], results[s]);
        }
        for (harness::RunResult& r : results) points.push_back(std::move(r));
      }
    }
    return points;
  };

  const std::uint64_t root = log.begin("figs-cold", 0);
  const std::vector<harness::RunResult> fig5 = traced_grid(setup.grids.fig5, root);
  const std::vector<harness::RunResult> fig7 = traced_grid(setup.grids.fig7, root);
  log.end(root);
  const double traced_wall = log.seconds(root);

  const std::uint64_t digest =
      digest_results(digest_results(kDigestSeed, fig5), fig7);
  out.checks.expect(digest == untraced_digest,
                    "figs-cold: traced results equal untraced results");
  out.digest = digest;

  // Read-back check, traced: ResultCache::lookup on warm entries.
  const std::uint64_t check_root = log.begin("check.readback", 0);
  const auto timed_lookup = [&](const exec::ResultCache& c,
                                const std::string& key,
                                harness::RunResult* back) {
    const Scope span(log, "exec.lookup", check_root);
    return c.lookup(key, back);
  };
  check_readback(cache, setup.keys5, fig5, &out.checks, timed_lookup);
  check_readback(cache, setup.keys7, fig7, &out.checks, timed_lookup);
  log.end(check_root);

  std::vector<double> hit_us;
  for (const Span& s : log.spans()) {
    if (s.name == "exec.lookup" && s.parent == check_root) {
      hit_us.push_back(s.seconds() * 1e6);
    }
  }
  const std::vector<double> store_ms = [&] {
    std::vector<double> v = durations(log.spans(), "exec.store");
    for (double& x : v) x *= 1e3;
    return v;
  }();
  const std::vector<double> build_s =
      durations(log.spans(), "workload.trace_build");

  out.layer("workload.trace_build_ms",
            1e3 * total_seconds(log.spans(), "workload.trace_build") /
                static_cast<double>(build_s.size()),
            "ms");
  const auto rate = [](const std::pair<double, double>& p) {
    return p.first / 1000.0 / p.second;
  };
  out.layer("sim.kuops_per_s.2c", rate(by_clusters[2]), "kuops/s");
  out.layer("sim.kuops_per_s.4c", rate(by_clusters[4]), "kuops/s");
  for (const char* kind : {"op", "ob", "rhop", "vc"}) {
    out.layer(std::string("sim.kuops_per_s.") + kind, rate(by_scheme[kind]),
              "kuops/s");
  }
  out.layer("sim.warmup_ms", 1e3 * warmup_s / static_cast<double>(cell_id),
            "ms");
  out.layer("sim.cycles_per_kuop",
            1000.0 * static_cast<double>(cycles) / static_cast<double>(uops),
            "count");
  out.layer("sim.copies_per_kuop", copies / static_cast<double>(uops),
            "count");
  out.layer("exec.store_ms.p50", percentile(store_ms, 0.50), "ms");
  out.layer("exec.store_ms.p99", percentile(store_ms, 0.99), "ms");
  out.layer("exec.lookup_us.p50", percentile(hit_us, 0.50), "us");
  out.layer("exec.lookup_us.p99", percentile(hit_us, 0.99), "us");
  out.layer("exec.sweep_self_pct",
            100.0 * (untraced_wall - phase_s) / untraced_wall, "%");
  out.layer("exec.corrupt", static_cast<double>(corrupt), "count");
  out.metric("wall_s", untraced_wall, "s");
  out.metric("traced_wall_s", traced_wall, "s");
  out.notes.push_back("exec.store_ms over " + std::to_string(store_ms.size()) +
                      " stores; exec.lookup_us over " +
                      std::to_string(hit_us.size()) + " warm read-backs");

  run->workload = "figs-cold";
  run->root = root;
  run->spans = std::move(log.spans());
  return out;
}

}  // namespace perfbench
