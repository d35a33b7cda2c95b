#include "exec/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <functional>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "eval/model_evaluator.hpp"
#include "eval/sim_evaluator.hpp"

namespace vcsteer::exec {

namespace {

/// Tie-averaged descending ranks (rank 1 = largest value), the standard
/// Spearman convention: tied values share the mean of the ranks they span.
std::vector<double> tied_ranks(const std::vector<double>& values) {
  const std::size_t n = values.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return values[a] > values[b];
  });
  std::vector<double> ranks(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    const double shared = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = shared;
    i = j + 1;
  }
  return ranks;
}

/// Spearman rank correlation of two paired samples. Degenerate inputs get
/// the ranking-agreement reading: fewer than two pairs or both sides
/// constant = trivially agreeing rankings (1.0); exactly one side constant
/// = no discrimination to agree with (0.0).
double spearman_correlation(const std::vector<double>& a,
                            const std::vector<double>& b) {
  VCSTEER_CHECK(a.size() == b.size());
  const std::size_t n = a.size();
  if (n < 2) return 1.0;
  const std::vector<double> ra = tied_ranks(a);
  const std::vector<double> rb = tied_ranks(b);
  double mean_a = 0, mean_b = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mean_a += ra[i];
    mean_b += rb[i];
  }
  mean_a /= static_cast<double>(n);
  mean_b /= static_cast<double>(n);
  double cov = 0, var_a = 0, var_b = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double da = ra[i] - mean_a;
    const double db = rb[i] - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a == 0.0 && var_b == 0.0) return 1.0;
  if (var_a == 0.0 || var_b == 0.0) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

/// Runs `body` on every entry of `jobs`, each once, started in list order:
/// inline on the calling thread when `threads` <= 1, else on that many
/// threads pulling from the list until it drains. A job that throws ends its
/// thread's loop; the first exception (or a failure to start a thread) is
/// rethrown once every started thread has joined.
void drain(const std::vector<std::size_t>& jobs, std::size_t threads,
           const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto keep_first_error = [&] {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!error) error = std::current_exception();
  };
  const auto loop = [&] {
    try {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < jobs.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
        body(jobs[i]);
      }
    } catch (...) {
      keep_first_error();
    }
  };
  if (threads <= 1) {
    loop();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    try {
      while (workers.size() < threads) workers.emplace_back(loop);
    } catch (...) {
      keep_first_error();  // the threads already running drain the list
    }
    for (std::thread& worker : workers) worker.join();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace

std::uint32_t resolve_batch_lanes(std::uint32_t /*requested*/) { return 1; }

std::uint64_t grid_fingerprint(const SweepGrid& grid,
                               std::uint64_t seed_salt) {
  std::string all;
  for (const workload::WorkloadProfile& base : grid.profiles) {
    workload::WorkloadProfile profile = base;
    profile.seed_salt += seed_salt;
    for (const MachineConfig& machine : grid.machines) {
      for (const SweepScheme& scheme : grid.schemes) {
        all += cache_key(profile, machine, scheme.spec, grid.budget,
                         scheme.custom_tag);
        all += '\x1f';  // unambiguous separator between point keys
      }
    }
  }
  return hash_seed(all);
}

SweepCounters& SweepCounters::operator+=(const SweepCounters& o) {
  simulated += o.simulated;
  cache_hits += o.cache_hits;
  cache_corrupt += o.cache_corrupt;
  experiments += o.experiments;
  if (o.model.enabled) {
    model.enabled = true;
    model.top_k = o.model.top_k;
    model.spearman = o.model.spearman;
    model.top3_overlap = o.model.top3_overlap;
  }
  model.estimated += o.model.estimated;
  model.pruned += o.model.pruned;
  phases += o.phases;
  return *this;
}

SweepResult::SweepResult(std::size_t traces, std::size_t machines,
                         std::size_t schemes)
    : traces_(traces),
      machines_(machines),
      schemes_(schemes),
      points_(traces * machines * schemes) {}

const harness::RunResult& SweepResult::at(std::size_t t, std::size_t m,
                                          std::size_t s) const {
  VCSTEER_CHECK(t < traces_ && m < machines_ && s < schemes_);
  return points_[(t * machines_ + m) * schemes_ + s];
}

unsigned default_jobs() {
  return std::max(1u, std::thread::hardware_concurrency());
}

SweepResult run_sweep(const SweepGrid& grid, const SweepOptions& opt) {
  VCSTEER_CHECK_MSG(!grid.profiles.empty() && !grid.machines.empty() &&
                        !grid.schemes.empty(),
                    "empty sweep grid");
  // Before any work: a pruned sweep would otherwise estimate a machine the
  // simulator refuses, and an unpruned one fail partway through.
  for (std::size_t m = 0; m < grid.machines.size(); ++m) {
    const std::string problem = grid.machines[m].validate();
    const std::string message =
        "grid machine " + std::to_string(m) + " is invalid: " + problem;
    VCSTEER_CHECK_MSG(problem.empty(), message.c_str());
  }
  const std::size_t num_traces = grid.profiles.size();
  const std::size_t num_machines = grid.machines.size();
  const std::size_t num_schemes = grid.schemes.size();
  SweepResult result(num_traces, num_machines, num_schemes);

  std::optional<ResultCache> cache;
  if (!opt.cache_dir.empty()) cache.emplace(opt.cache_dir);

  const std::size_t total_jobs = num_traces * num_machines;
  std::atomic<std::size_t> cache_corrupt{0};
  std::atomic<std::size_t> experiments{0};
  std::mutex phases_mutex;
  PhaseSeconds phases;
  // Per point: whether the cache served the result the point ends with.
  std::vector<char> hit(result.num_points(), 0);
  using Clock = std::chrono::steady_clock;
  auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  // Scores `schemes` on the (trace, machine) cell with `evaluator`: probes
  // the cache for each under the evaluator's key namespace ("sim" or
  // "model"), evaluates the misses in one request, which lets the backend
  // share per-cell work among them, and stores them. Returns the number of
  // points evaluated.
  const auto run_cell = [&](auto& evaluator, std::size_t t, std::size_t m,
                            const std::vector<std::size_t>& schemes) {
    workload::WorkloadProfile profile = grid.profiles[t];
    profile.seed_salt += opt.seed_salt;
    const MachineConfig& machine = grid.machines[m];
    const std::size_t first = (t * num_machines + m) * num_schemes;
    harness::RunResult* const slots = &result.points_[first];

    PhaseSeconds cell_phases;
    std::vector<std::size_t> missing;
    std::vector<std::string> keys(num_schemes);
    for (const std::size_t s : schemes) {
      CacheLookup looked = CacheLookup::kMiss;
      if (cache) {
        keys[s] = cache_key(profile, machine, grid.schemes[s].spec,
                            grid.budget, grid.schemes[s].custom_tag,
                            eval::source_name(evaluator.source()));
        const Clock::time_point t0 = Clock::now();
        looked = cache->lookup(keys[s], &slots[s]);
        cell_phases.cache_io += seconds_since(t0);
      }
      hit[first + s] = looked == CacheLookup::kHit;
      if (looked == CacheLookup::kHit) continue;
      if (looked == CacheLookup::kCorrupt) {
        cache_corrupt.fetch_add(1, std::memory_order_relaxed);
      }
      missing.push_back(s);
    }

    if (!missing.empty()) {
      eval::EvalRequest request{profile, machine, grid.budget, {}};
      for (const std::size_t s : missing) {
        request.schemes.push_back(grid.schemes[s]);
      }
      eval::EvalResponse response = evaluator.evaluate(request);
      experiments.fetch_add(response.experiments, std::memory_order_relaxed);
      for (std::size_t i = 0; i < missing.size(); ++i) {
        const std::size_t s = missing[i];
        slots[s] = std::move(response.results[i]);
        if (cache) {
          const Clock::time_point t0 = Clock::now();
          cache->store(keys[s], slots[s]);
          cell_phases.cache_io += seconds_since(t0);
        }
      }
      cell_phases.trace_build += response.phases.trace_build_s;
      cell_phases.annotate += response.phases.annotate_s;
      cell_phases.warmup += response.phases.warmup_s;
      cell_phases.simulate += response.phases.simulate_s;
    }
    std::lock_guard<std::mutex> lock(phases_mutex);
    phases += cell_phases;
    return missing.size();
  };

  // --- Stage 1 (pruned mode only): model-estimate every grid point. -------
  // The estimates land in the result slots; (machine, scheme) configs are
  // then ranked by mean model IPC across traces and the top-K become the
  // simulation frontier, whose slots stage 2 overwrites. sim_schemes[m] is
  // the scheme subset stage 2 simulates on machine m — every scheme in the
  // unpruned case.
  std::vector<std::size_t> every_scheme(num_schemes);
  std::iota(every_scheme.begin(), every_scheme.end(), std::size_t{0});
  std::vector<std::vector<std::size_t>> sim_schemes(num_machines);
  std::vector<double> model_score;  // mean model IPC per (machine, scheme)
  if (opt.prune_top_k == 0) {
    sim_schemes.assign(num_machines, every_scheme);
  } else {
    eval::ModelEvaluator model_evaluator;
    std::vector<std::size_t> cells(total_jobs);
    std::iota(cells.begin(), cells.end(), std::size_t{0});
    drain(cells, std::min<std::size_t>(opt.jobs, total_jobs),
          [&](std::size_t job) {
            run_cell(model_evaluator, job / num_machines, job % num_machines,
                     every_scheme);
          });

    const std::size_t num_configs = num_machines * num_schemes;
    model_score.resize(num_configs, 0.0);
    for (std::size_t m = 0; m < num_machines; ++m) {
      for (std::size_t s = 0; s < num_schemes; ++s) {
        double sum = 0;
        for (std::size_t t = 0; t < num_traces; ++t) {
          sum += result.at(t, m, s).ipc;
        }
        model_score[m * num_schemes + s] =
            sum / static_cast<double>(num_traces);
      }
    }
    // Rank configs by model score (stable: score ties break towards the
    // lower grid index) and take the top-K as the simulation frontier.
    std::vector<std::size_t> order(num_configs);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return model_score[a] > model_score[b];
                     });
    const std::size_t frontier = std::min(opt.prune_top_k, num_configs);
    for (std::size_t i = 0; i < frontier; ++i) {
      sim_schemes[order[i] / num_schemes].push_back(order[i] % num_schemes);
    }
    // The ranking visits configs in score order; the sim stage wants each
    // machine's schemes back in deterministic grid order.
    for (auto& schemes : sim_schemes) std::sort(schemes.begin(), schemes.end());
    result.model.enabled = true;
    result.model.top_k = opt.prune_top_k;
    result.model.estimated = result.num_points();
    result.model.pruned = (num_configs - frontier) * num_traces;
  }

  // --- Stage 2: cycle-accurate simulation. --------------------------------
  // One job = the (frontier) schemes of one (trace, machine) cell: the
  // schemes share the job's TraceExperiment (workload generation and trace
  // replay dominate point cost) behind SimEvaluator, and each scheme
  // re-annotates from scratch, so evaluating any subset of schemes yields
  // the same bits as evaluating all of them — which is why a pruned run's
  // simulated frontier is byte-identical to the unpruned run's.
  std::vector<std::size_t> cells;
  for (std::size_t job = 0; job < total_jobs; ++job) {
    if (!sim_schemes[job % num_machines].empty()) cells.push_back(job);
  }
  const std::size_t num_jobs = cells.size();
  eval::SimEvaluator sim_evaluator;
  std::atomic<std::size_t> simulated{0};
  std::atomic<std::size_t> jobs_done{0};
  std::mutex progress_mutex;
  drain(cells, std::min<std::size_t>(opt.jobs, num_jobs),
        [&](std::size_t job) {
          const std::size_t m = job % num_machines;
          simulated.fetch_add(
              run_cell(sim_evaluator, job / num_machines, m, sim_schemes[m]),
              std::memory_order_relaxed);
          const std::size_t done = jobs_done.fetch_add(1) + 1;
          if (opt.progress) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            opt.progress(done, num_jobs);
          }
        });

  // --- Stage 3 (pruned mode only): score the model's rank agreement over
  // the simulated frontier configs (mean sim IPC vs mean model IPC across
  // traces).
  if (opt.prune_top_k > 0) {
    std::vector<double> frontier_model, frontier_sim;
    for (std::size_t m = 0; m < num_machines; ++m) {
      for (const std::size_t s : sim_schemes[m]) {
        double sim_sum = 0;
        for (std::size_t t = 0; t < num_traces; ++t) {
          sim_sum += result.at(t, m, s).ipc;
        }
        frontier_model.push_back(model_score[m * num_schemes + s]);
        frontier_sim.push_back(sim_sum / static_cast<double>(num_traces));
      }
    }
    result.model.spearman =
        spearman_correlation(frontier_model, frontier_sim);
    // Top-3 overlap within the frontier: both rankings restricted to the
    // configs that actually got simulated (outside the frontier there is no
    // simulation ranking to compare against).
    auto top3 = [&](const std::vector<double>& score) {
      std::vector<std::size_t> idx(score.size());
      std::iota(idx.begin(), idx.end(), std::size_t{0});
      std::stable_sort(idx.begin(), idx.end(),
                       [&](std::size_t a, std::size_t b) {
                         return score[a] > score[b];
                       });
      idx.resize(std::min<std::size_t>(3, idx.size()));
      return idx;
    };
    const std::vector<std::size_t> by_model = top3(frontier_model);
    const std::vector<std::size_t> by_sim = top3(frontier_sim);
    for (const std::size_t i : by_model) {
      if (std::find(by_sim.begin(), by_sim.end(), i) != by_sim.end()) {
        ++result.model.top3_overlap;
      }
    }
  }

  result.simulated = simulated.load();
  result.cache_hits =
      static_cast<std::size_t>(std::count(hit.begin(), hit.end(), char{1}));
  result.cache_corrupt = cache_corrupt.load();
  result.experiments = experiments.load();
  result.phases = phases;
  return result;
}

}  // namespace vcsteer::exec
