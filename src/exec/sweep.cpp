#include "exec/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <optional>
#include <string>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "eval/model_evaluator.hpp"
#include "eval/sim_evaluator.hpp"
#include "exec/thread_pool.hpp"

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
  jobs_pulled += o.jobs_pulled;
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

harness::RunResult& SweepResult::slot(std::size_t t, std::size_t m,
                                      std::size_t s) {
  return points_[(t * machines_ + m) * schemes_ + s];
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
  SweepResult result(grid.profiles.size(), grid.machines.size(),
                     grid.schemes.size());

  VCSTEER_CHECK_MSG(opt.prune_top_k == 0 || opt.queue == nullptr,
                    "--prune-model needs the whole grid: incompatible with "
                    "queue mode");

  std::optional<ResultCache> local_cache;
  ResultStore* store = opt.store;
  if (store == nullptr && !opt.cache_dir.empty()) {
    local_cache.emplace(opt.cache_dir);
    store = &*local_cache;
  }

  const std::size_t total_jobs =
      grid.profiles.size() * grid.machines.size();
  std::atomic<std::size_t> simulated{0};
  std::atomic<std::size_t> cache_hits{0};
  std::atomic<std::size_t> cache_corrupt{0};
  std::atomic<std::size_t> experiments{0};
  std::atomic<std::size_t> jobs_done{0};
  std::mutex progress_mutex;
  std::mutex phases_mutex;
  PhaseSeconds phases;
  using Clock = std::chrono::steady_clock;
  auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  eval::SimEvaluator sim_evaluator;
  const auto slot_index = [&](std::size_t t, std::size_t m, std::size_t s) {
    return (t * grid.machines.size() + m) * grid.schemes.size() + s;
  };

  // --- Stage 1 (pruned mode only): model-estimate every grid point. -------
  // Scored by the analytical evaluator (memoised traces; cached under the
  // "model" key namespace), then (machine, scheme) configs are ranked by
  // mean model IPC across traces and the top-K become the simulation
  // frontier. sim_schemes[m] is the scheme subset stage 2 simulates on
  // machine m — every scheme in the unpruned case.
  std::vector<std::vector<std::size_t>> sim_schemes(grid.machines.size());
  std::vector<harness::RunResult> model_points;
  // Model points served from the store. Only those the frontier leaves
  // model-tagged count as cache hits; a frontier point counts in stage 2.
  std::vector<char> model_hit;
  std::vector<double> model_score;  // mean model IPC per (machine, scheme)
  if (opt.prune_top_k == 0) {
    for (auto& schemes : sim_schemes) {
      schemes.resize(grid.schemes.size());
      for (std::size_t s = 0; s < grid.schemes.size(); ++s) schemes[s] = s;
    }
  } else {
    eval::ModelEvaluator model_evaluator;
    model_points.resize(result.num_points());
    model_hit.resize(result.num_points(), 0);
    auto model_job = [&](std::size_t t, std::size_t m) {
      workload::WorkloadProfile profile = grid.profiles[t];
      profile.seed_salt += opt.seed_salt;
      const MachineConfig& machine = grid.machines[m];
      PhaseSeconds job_phases;
      std::vector<std::size_t> missing;
      std::vector<std::string> keys(grid.schemes.size());
      for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
        if (store != nullptr) {
          keys[s] = cache_key(profile, machine, grid.schemes[s].spec,
                              grid.budget, grid.schemes[s].custom_tag,
                              eval::source_name(eval::Source::kModel));
          const Clock::time_point t0 = Clock::now();
          const CacheLookup looked =
              store->lookup(keys[s], &model_points[slot_index(t, m, s)]);
          job_phases.cache_io += seconds_since(t0);
          if (looked == CacheLookup::kHit) {
            model_hit[slot_index(t, m, s)] = 1;
            continue;
          }
          if (looked == CacheLookup::kCorrupt) {
            cache_corrupt.fetch_add(1, std::memory_order_relaxed);
          }
        }
        missing.push_back(s);
      }
      if (!missing.empty()) {
        eval::EvalRequest request{profile, machine, grid.budget, {}};
        for (const std::size_t s : missing) {
          request.schemes.push_back(grid.schemes[s]);
        }
        eval::EvalResponse response = model_evaluator.evaluate(request);
        experiments.fetch_add(response.experiments, std::memory_order_relaxed);
        for (std::size_t i = 0; i < missing.size(); ++i) {
          const std::size_t s = missing[i];
          model_points[slot_index(t, m, s)] = std::move(response.results[i]);
          if (store != nullptr) {
            const Clock::time_point t0 = Clock::now();
            store->store(keys[s], model_points[slot_index(t, m, s)]);
            job_phases.cache_io += seconds_since(t0);
          }
        }
        job_phases.trace_build += response.phases.trace_build_s;
        job_phases.annotate += response.phases.annotate_s;
        job_phases.warmup += response.phases.warmup_s;
        job_phases.simulate += response.phases.simulate_s;
      }
      std::lock_guard<std::mutex> lock(phases_mutex);
      phases += job_phases;
    };
    if (opt.jobs <= 1 || total_jobs <= 1) {
      for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
        for (std::size_t m = 0; m < grid.machines.size(); ++m) {
          model_job(t, m);
        }
      }
    } else {
      ThreadPool pool(static_cast<unsigned>(
          std::min<std::size_t>(opt.jobs, total_jobs)));
      std::vector<std::future<void>> futures;
      futures.reserve(total_jobs);
      for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
        for (std::size_t m = 0; m < grid.machines.size(); ++m) {
          futures.push_back(
              pool.submit([&model_job, t, m] { model_job(t, m); }));
        }
      }
      for (auto& f : futures) f.get();
    }
    result.model.enabled = true;
    result.model.top_k = opt.prune_top_k;
    result.model.estimated = model_points.size();

    const std::size_t num_configs =
        grid.machines.size() * grid.schemes.size();
    model_score.resize(num_configs, 0.0);
    for (std::size_t m = 0; m < grid.machines.size(); ++m) {
      for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
        double sum = 0;
        for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
          sum += model_points[slot_index(t, m, s)].ipc;
        }
        model_score[m * grid.schemes.size() + s] =
            sum / static_cast<double>(grid.profiles.size());
      }
    }
    // Rank configs by model score (stable: score ties break towards the
    // lower grid index) and take the top-K as the simulation frontier.
    std::vector<std::size_t> order(num_configs);
    for (std::size_t c = 0; c < num_configs; ++c) order[c] = c;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return model_score[a] > model_score[b];
                     });
    const std::size_t frontier = std::min(opt.prune_top_k, num_configs);
    for (std::size_t i = 0; i < frontier; ++i) {
      sim_schemes[order[i] / grid.schemes.size()].push_back(
          order[i] % grid.schemes.size());
    }
    // The ranking visits configs in score order; the sim stage wants each
    // machine's schemes back in deterministic grid order.
    for (auto& schemes : sim_schemes) std::sort(schemes.begin(), schemes.end());
  }

  std::size_t num_jobs = 0;
  for (const auto& schemes : sim_schemes) {
    if (!schemes.empty()) num_jobs += grid.profiles.size();
  }

  // --- Stage 2: cycle-accurate simulation. --------------------------------
  // One job = the (frontier) schemes of one (trace, machine) cell: the
  // schemes share the job's TraceExperiment (workload generation and trace
  // replay dominate point cost) behind SimEvaluator, and each scheme
  // re-annotates from scratch, so evaluating any subset of schemes yields
  // the same bits as evaluating all of them — which is why a pruned run's
  // simulated frontier is byte-identical to the unpruned run's.
  auto run_job = [&](std::size_t t, std::size_t m) {
    workload::WorkloadProfile profile = grid.profiles[t];
    profile.seed_salt += opt.seed_salt;
    const MachineConfig& machine = grid.machines[m];

    PhaseSeconds job_phases;
    std::vector<std::size_t> missing;
    std::vector<std::string> keys(grid.schemes.size());
    for (const std::size_t s : sim_schemes[m]) {
      const SweepScheme& scheme = grid.schemes[s];
      if (store != nullptr) {
        keys[s] = cache_key(profile, machine, scheme.spec, grid.budget,
                            scheme.custom_tag);
        const Clock::time_point t0 = Clock::now();
        const CacheLookup looked = store->lookup(keys[s], &result.slot(t, m, s));
        job_phases.cache_io += seconds_since(t0);
        if (looked == CacheLookup::kHit) {
          cache_hits.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (looked == CacheLookup::kCorrupt) {
          cache_corrupt.fetch_add(1, std::memory_order_relaxed);
        }
      }
      missing.push_back(s);
    }

    if (!missing.empty()) {
      eval::EvalRequest request{profile, machine, grid.budget, {}};
      for (const std::size_t s : missing) {
        request.schemes.push_back(grid.schemes[s]);
      }
      eval::EvalResponse response = sim_evaluator.evaluate(request);
      experiments.fetch_add(response.experiments, std::memory_order_relaxed);
      for (std::size_t i = 0; i < missing.size(); ++i) {
        const std::size_t s = missing[i];
        result.slot(t, m, s) = std::move(response.results[i]);
        simulated.fetch_add(1, std::memory_order_relaxed);
        if (store != nullptr) {
          const Clock::time_point t0 = Clock::now();
          store->store(keys[s], result.slot(t, m, s));
          job_phases.cache_io += seconds_since(t0);
        }
      }
      job_phases.trace_build += response.phases.trace_build_s;
      job_phases.annotate += response.phases.annotate_s;
      job_phases.warmup += response.phases.warmup_s;
      job_phases.simulate += response.phases.simulate_s;
    }
    {
      std::lock_guard<std::mutex> lock(phases_mutex);
      phases += job_phases;
    }

    const std::size_t done = jobs_done.fetch_add(1) + 1;
    if (opt.progress) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      opt.progress(done, num_jobs);
    }
  };

  std::atomic<std::size_t> jobs_pulled{0};
  if (opt.queue != nullptr) {
    // Pull mode: each worker thread leases jobs until the queue reports the
    // sweep drained. Cells pulled by *other* workers stay default — the
    // caller assembles them from the shared store afterwards.
    auto pull_loop = [&] {
      std::size_t job = 0;
      while (opt.queue->acquire(&job)) {
        VCSTEER_CHECK_MSG(job < total_jobs, "leased job index out of range");
        jobs_pulled.fetch_add(1, std::memory_order_relaxed);
        run_job(job / grid.machines.size(), job % grid.machines.size());
        opt.queue->complete(job);
      }
    };
    if (opt.jobs <= 1) {
      pull_loop();
    } else {
      ThreadPool pool(static_cast<unsigned>(
          std::min<std::size_t>(opt.jobs, total_jobs)));
      std::vector<std::future<void>> futures;
      const std::size_t workers =
          std::min<std::size_t>(opt.jobs, total_jobs);
      futures.reserve(workers);
      for (std::size_t i = 0; i < workers; ++i) {
        futures.push_back(pool.submit(pull_loop));
      }
      for (auto& f : futures) f.get();
    }
  } else if (opt.jobs <= 1 || num_jobs <= 1) {
    for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
      for (std::size_t m = 0; m < grid.machines.size(); ++m) {
        if (!sim_schemes[m].empty()) run_job(t, m);
      }
    }
  } else if (num_jobs > 0) {
    // No point keeping more workers than jobs exist.
    ThreadPool pool(static_cast<unsigned>(
        std::min<std::size_t>(opt.jobs, num_jobs)));
    std::vector<std::future<void>> futures;
    futures.reserve(num_jobs);
    for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
      for (std::size_t m = 0; m < grid.machines.size(); ++m) {
        if (sim_schemes[m].empty()) continue;
        futures.push_back(pool.submit([&run_job, t, m] { run_job(t, m); }));
      }
    }
    for (auto& f : futures) f.get();
  }

  // --- Stage 3 (pruned mode only): fill non-frontier slots with the model
  // estimates and score the model's rank agreement over the simulated
  // frontier configs (mean sim IPC vs mean model IPC across traces).
  if (opt.prune_top_k > 0) {
    std::vector<bool> in_frontier(grid.machines.size() * grid.schemes.size(),
                                  false);
    for (std::size_t m = 0; m < grid.machines.size(); ++m) {
      for (const std::size_t s : sim_schemes[m]) {
        in_frontier[m * grid.schemes.size() + s] = true;
      }
    }
    std::vector<double> frontier_model, frontier_sim;
    std::vector<std::size_t> frontier_configs;
    for (std::size_t m = 0; m < grid.machines.size(); ++m) {
      for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
        const std::size_t c = m * grid.schemes.size() + s;
        if (!in_frontier[c]) {
          for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
            result.slot(t, m, s) = model_points[slot_index(t, m, s)];
            ++result.model.pruned;
            cache_hits += model_hit[slot_index(t, m, s)];
          }
          continue;
        }
        double sim_sum = 0;
        for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
          sim_sum += result.at(t, m, s).ipc;
        }
        frontier_configs.push_back(c);
        frontier_model.push_back(model_score[c]);
        frontier_sim.push_back(sim_sum /
                               static_cast<double>(grid.profiles.size()));
      }
    }
    result.model.spearman =
        spearman_correlation(frontier_model, frontier_sim);
    // Top-3 overlap within the frontier: both rankings restricted to the
    // configs that actually got simulated (outside the frontier there is no
    // simulation ranking to compare against).
    auto top3 = [&](const std::vector<double>& score) {
      std::vector<std::size_t> idx(frontier_configs.size());
      for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
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

  result.jobs_pulled = jobs_pulled.load();
  result.simulated = simulated.load();
  result.cache_hits = cache_hits.load();
  result.cache_corrupt = cache_corrupt.load();
  result.experiments = experiments.load();
  result.phases = phases;
  return result;
}

}  // namespace vcsteer::exec
