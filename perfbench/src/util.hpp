// Shared plumbing of the perfbench workloads: clocks, order statistics,
// result digests, output checks and the metric record every workload fills.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/sweep.hpp"
#include "harness/experiment.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `xs` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> xs);
/// Linear-interpolated percentile, p in [0, 1]; 0 when empty.
double percentile(std::vector<double> xs, double p);

/// FNV-1a over `bytes`, continuing from `h` (start from kDigestSeed).
constexpr std::uint64_t kDigestSeed = 1469598103934665603ULL;
std::uint64_t digest_bytes(std::uint64_t h, std::string_view bytes);
/// Digest of every point's canonical cache-entry encoding, in order.
std::uint64_t digest_results(std::uint64_t h,
                             const std::vector<vcsteer::harness::RunResult>& rs);
std::string hex64(std::uint64_t v);

/// `base` with the sweep seed added to its salt, as run_sweep applies it.
vcsteer::workload::WorkloadProfile salted(
    const vcsteer::workload::WorkloadProfile& base, std::uint64_t seed);
/// Every point's cache key under `seed`, in SweepResult::points() order.
std::vector<std::string> grid_keys(const vcsteer::exec::SweepGrid& grid,
                                   std::uint64_t seed);
/// Lower-case scheme name, e.g. "rhop": the suffix of per-scheme metrics.
std::string scheme_kind(vcsteer::steer::Scheme scheme);

/// Output checks: each counts as attempted, and as failed when false (the
/// failure is described on stderr).
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool expect(bool ok, const std::string& what);
  void merge(const Checks& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload pass reports. `metrics` are the untraced end-to-end
/// figures (workload-specific ones included); `layers` the traced run's
/// per-layer figures.
struct Outcome {
  std::vector<Metric> metrics;
  std::vector<Metric> layers;
  /// Human-readable lines printed after the metrics (fidelity notes).
  std::vector<std::string> notes;
  Checks checks;
  std::uint64_t digest = 0;
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    layers.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Inputs every workload receives.
struct RunConfig {
  std::uint64_t seed = 0;
  double seconds = 10;
  /// Scratch directory private to this process (inside the checkout).
  std::string work_dir;
  /// Directory of the perfbench binary, which holds vcsteer-sweepd too.
  std::string bin_dir;
};

/// Times `blocks` blocks of `per_block` back-to-back set-ups, appending each
/// block's seconds per set-up to `spans`. Blocks of a few milliseconds keep
/// timer and interrupt jitter out of sub-millisecond set-ups.
template <typename F>
void time_setups(int blocks, int per_block, std::vector<double>* spans,
                 F&& setup) {
  for (int b = 0; b < blocks; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < per_block; ++i) setup();
    spans->push_back(seconds_since(t0) / per_block);
  }
}

/// Number of repetitions a run of `seconds` makes when one repetition takes
/// at most `slowest_rep_s` (the slowest observed, set-up included): at least
/// three. The count depends on `seconds` alone, never on how fast this build
/// is, so every build takes its fastest repetition over the same number of
/// samples.
inline std::size_t rep_count(double seconds, double slowest_rep_s) {
  return std::max<std::size_t>(3,
                               static_cast<std::size_t>(seconds / slowest_rep_s));
}

/// Runs `rep` (returning its timed seconds) `reps` times; returns every
/// repetition's timed seconds.
template <typename F>
std::vector<double> timed_reps(std::size_t reps, F&& rep) {
  std::vector<double> spans;
  for (std::size_t i = 0; i < reps; ++i) spans.push_back(rep());
  return spans;
}

/// The fastest repetition, which a run reports as its `wall_s`. The work of
/// every repetition is identical, and interference from the shared host
/// only ever adds time, in episodes that slow whole stretches of
/// repetitions; the fastest one moves far less from run to run than the
/// median does.
inline double fastest(const std::vector<double>& walls) {
  return *std::min_element(walls.begin(), walls.end());
}

/// "wall_s per repetition: a b c ..." for the report.
std::string rep_walls(const std::vector<double>& walls);

/// Removes `path` recursively (missing is fine) and recreates it empty.
void fresh_dir(const std::string& path);
void remove_tree(const std::string& path);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

}  // namespace perfbench
