// Deterministic execution of an experiment grid.
//
// A sweep is the cross product (traces x machines x schemes) every figure
// bench iterates. run_sweep() splits it into one job per (trace, machine)
// pair — the granularity at which TraceExperiment amortises workload
// generation and trace materialisation — and worker threads pull the jobs
// from a JobQueue until it drains (`--jobs 1` runs them inline). Each job
// owns its TraceExperiment and every RNG it touches is seeded from the
// profile itself, so results are bit-identical no matter how many workers
// run or in which order jobs finish: `--jobs 8` reproduces `--jobs 1`
// exactly. Results land in pre-sized slots indexed by grid position, never
// by completion order.
//
// With a ResultCache attached, each point is probed before simulating and
// stored after; a job whose points are all cached never constructs its
// TraceExperiment, which is what makes warm re-runs of a full figure sweep
// near-instant. Spreading a sweep over processes goes through a JobQueue:
// workers lease jobs from one vcsteer-sweepd (src/net/) and publish into
// its store, and an assembly pass then reads the whole grid back.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "exec/cache.hpp"
#include "harness/experiment.hpp"
#include "steer/policy.hpp"
#include "workload/profiles.hpp"

namespace vcsteer::exec {

/// One scheme-axis entry: the evaluation API's shared request currency
/// (either a built-in SchemeSpec or a caller-constructed policy factory
/// labelled/cache-keyed by its custom tag). Historically a distinct struct
/// with exactly this shape; now the same type the Evaluator interface and
/// TraceExperiment::evaluate consume, so grids flow through unconverted.
using SweepScheme = harness::SchemeRequest;

struct SweepGrid {
  std::vector<workload::WorkloadProfile> profiles;
  std::vector<MachineConfig> machines;
  std::vector<SweepScheme> schemes;
  harness::SimBudget budget;
};

/// Source of sweep jobs: run_sweep's worker threads acquire() jobs until it
/// drains. A job is the linear index `trace * num_machines + machine` into
/// the grid's (trace, machine) cells. run_sweep drains an in-process queue
/// of its own unless SweepOptions::queue supplies one: the sweep service's
/// NetJobQueue leases jobs from vcsteer-sweepd so idle workers steal work
/// from slow ones.
class JobQueue {
 public:
  virtual ~JobQueue() = default;
  /// Blocks until a job is granted (true) or the sweep is drained — every
  /// job completed, possibly by other workers (false). Called concurrently
  /// from worker threads.
  virtual bool acquire(std::size_t* job) = 0;
  /// Marks `job` finished; its results are already in the result store.
  virtual void complete(std::size_t job) = 0;
};

struct SweepOptions {
  /// Worker threads; 1 runs every job inline on the calling thread.
  unsigned jobs = 1;
  /// Result-cache directory; empty disables caching. Ignored when `store`
  /// is set.
  std::string cache_dir;
  /// Result store override: probed before simulating and written after,
  /// exactly like cache_dir, but through any ResultStore (e.g. the sweep
  /// service's networked store). Not owned.
  ResultStore* store = nullptr;
  /// Pull-mode scheduling: when set, the simulation stage's workers
  /// acquire() jobs from this queue until it drains, instead of from
  /// run_sweep's own queue of every cell. Jobs executed here count
  /// into SweepCounters::jobs_pulled; cells this worker never pulled stay
  /// default-initialised (empty trace) and are assembled from the shared
  /// store afterwards. Not owned.
  JobQueue* queue = nullptr;
  /// Extra salt added to every profile's seed_salt (--seed): shifts the
  /// whole sweep to a different deterministic universe.
  std::uint64_t seed_salt = 0;
  /// Called after each (trace, machine) job completes, from the worker
  /// thread (serialised by the runner). done/total count the jobs this run
  /// schedules (every job in queue mode).
  std::function<void(std::size_t done, std::size_t total)> progress;
  /// Two-stage pruned search (--prune-model K; 0 = off). When set, every
  /// grid point is first scored by the analytical critical-path model
  /// (eval::ModelEvaluator; cached under the "model" key namespace), the
  /// (machine, scheme) configs are ranked by mean model IPC across traces,
  /// and only the top-K configs are simulated — through the exact same
  /// SimEvaluator path as an unpruned run, so the simulated frontier's
  /// results (and cache entries) are byte-identical with and without
  /// pruning. Non-frontier slots carry the model estimates, tagged
  /// source == "model". Incompatible with queue mode (the frontier needs the
  /// whole grid's estimates).
  std::size_t prune_top_k = 0;
};

/// Wall-clock seconds a sweep spent per phase, summed over all jobs (so on
/// a multi-worker run the spans can exceed the sweep's wall time). Surfaced
/// through exec::RunSummary / --summary-json so perf tooling can attribute
/// a regression to a phase instead of a single kuops/s scalar.
struct PhaseSeconds {
  double trace_build = 0;  ///< workload generation + PinPoints + replay.
  double annotate = 0;     ///< software passes (OB/RHOP/VC).
  double warmup = 0;       ///< functional cache warming.
  double simulate = 0;     ///< the cycle loops.
  double cache_io = 0;     ///< ResultCache lookups + stores.

  PhaseSeconds& operator+=(const PhaseSeconds& o) {
    trace_build += o.trace_build;
    annotate += o.annotate;
    warmup += o.warmup;
    simulate += o.simulate;
    cache_io += o.cache_io;
    return *this;
  }
};

/// Two-stage pruned-mode accounting (SweepOptions::prune_top_k).
struct ModelStats {
  bool enabled = false;       ///< prune_top_k > 0 on this run.
  std::size_t top_k = 0;      ///< requested frontier size (configs).
  std::size_t estimated = 0;  ///< grid points scored by the model.
  std::size_t pruned = 0;     ///< slots filled with model estimates only.
  /// Rank agreement between model and simulation over the simulated
  /// frontier configs: Spearman correlation of mean-IPC ranks
  /// (tie-averaged) and the overlap of the two top-3 config sets.
  double spearman = 0.0;
  std::size_t top3_overlap = 0;
};

/// What a sweep did, as opposed to what it found: every SweepResult carries
/// one, and a bench run sums its sweeps' into exec::RunSummary with +=.
struct SweepCounters {
  /// Points simulated / served from the store. A point counts once, by
  /// the result it ends with, so simulated + cache_hits <= points.
  std::size_t simulated = 0;
  std::size_t cache_hits = 0;
  /// Store entries found truncated/garbled (e.g. a worker killed mid-run on
  /// a pre-fsync cache). Each stays in place until the store() of its
  /// recomputed point replaces it: a simulated entry's point is
  /// re-simulated and also counts in `simulated`; a model entry's point is
  /// re-estimated.
  std::size_t cache_corrupt = 0;
  /// TraceExperiments actually constructed (jobs with at least one cache
  /// miss); 0 on a fully warm sweep.
  std::size_t experiments = 0;
  /// Jobs acquired from SweepOptions::queue: the per-worker work-stealing
  /// tally surfaced in --summary-json.
  std::size_t jobs_pulled = 0;
  ModelStats model;
  /// Per-phase wall-clock spans, summed over all jobs.
  PhaseSeconds phases;

  /// Sums counts and spans. The rank-agreement stats describe one frontier,
  /// so a pruned operand's top_k/spearman/top3_overlap replace the current
  /// ones; an unpruned operand leaves them as they were.
  SweepCounters& operator+=(const SweepCounters& o);
};

class SweepResult : public SweepCounters {
 public:
  SweepResult(std::size_t traces, std::size_t machines, std::size_t schemes);

  const harness::RunResult& at(std::size_t trace, std::size_t machine,
                               std::size_t scheme) const;
  /// at(trace, 0, scheme) — the common single-machine grid.
  const harness::RunResult& at(std::size_t trace, std::size_t scheme) const {
    return at(trace, 0, scheme);
  }

  std::size_t num_traces() const { return traces_; }
  std::size_t num_machines() const { return machines_; }
  std::size_t num_schemes() const { return schemes_; }
  std::size_t num_points() const { return points_.size(); }
  const std::vector<harness::RunResult>& points() const { return points_; }

 private:
  friend SweepResult run_sweep(const SweepGrid&, const SweepOptions&);

  std::size_t traces_, machines_, schemes_;
  std::vector<harness::RunResult> points_;
};

/// Runs the grid. CHECK-fails before any work when a grid machine fails
/// MachineConfig::validate(), naming the machine's index and the problem.
/// An exception thrown by a job (its evaluator, store or progress callback)
/// is rethrown here once every worker thread has joined.
SweepResult run_sweep(const SweepGrid& grid, const SweepOptions& opt);

/// std::thread::hardware_concurrency with a floor of 1 (the standard allows
/// it to return 0): the default SweepOptions::jobs of the benches.
unsigned default_jobs();

/// Deterministic 64-bit identity of a sweep: the hash of every point's
/// canonical cache key (profiles already salted with `seed_salt`). Clients
/// leasing jobs from a vcsteer-sweepd use it as the sweep id, so two workers
/// only share a lease queue when they would produce byte-identical grids.
std::uint64_t grid_fingerprint(const SweepGrid& grid, std::uint64_t seed_salt);

// Always 1; kept only because perfbench/ still calls it.
std::uint32_t resolve_batch_lanes(std::uint32_t requested);

}  // namespace vcsteer::exec
