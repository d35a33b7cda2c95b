#include "workload/pinpoints.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace vcsteer::workload {
namespace {

using Bbv = std::vector<double>;

/// Lloyd iterations at most; they stop early once no assignment changes.
constexpr std::uint32_t kKmeansIters = 25;

double sq_distance(const Bbv& a, const Bbv& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    d += diff * diff;
  }
  return d;
}

/// k-means++ seeding followed by Lloyd iterations. Small n (tens of
/// intervals), so the plain O(n*k) implementation is appropriate.
std::vector<std::uint32_t> kmeans(const std::vector<Bbv>& points,
                                  std::uint32_t k, vcsteer::Rng& rng) {
  const std::size_t n = points.size();
  VCSTEER_CHECK(k >= 1 && k <= n);
  std::vector<Bbv> centroids;
  centroids.reserve(k);
  centroids.push_back(points[rng.below(n)]);
  std::vector<double> dist(n);
  while (centroids.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::max();
      for (const Bbv& c : centroids) best = std::min(best, sq_distance(points[i], c));
      dist[i] = best;
      total += best;
    }
    if (total <= 0.0) {
      // All remaining points coincide with a centroid: duplicate one.
      centroids.push_back(points[rng.below(n)]);
      continue;
    }
    double pick = rng.uniform() * total;
    std::size_t chosen = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      pick -= dist[i];
      if (pick <= 0) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(points[chosen]);
  }

  std::vector<std::uint32_t> assign(n, 0);
  for (std::uint32_t iter = 0; iter < kKmeansIters; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::max();
      std::uint32_t best_c = 0;
      for (std::uint32_t c = 0; c < k; ++c) {
        const double d = sq_distance(points[i], centroids[c]);
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      if (assign[i] != best_c) {
        assign[i] = best_c;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    // Recompute centroids; empty clusters keep their previous centroid.
    std::vector<Bbv> sums(k, Bbv(points[0].size(), 0.0));
    std::vector<std::uint32_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < points[i].size(); ++d) {
        sums[assign[i]][d] += points[i][d];
      }
      ++counts[assign[i]];
    }
    for (std::uint32_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;
      for (double& v : sums[c]) v /= counts[c];
      centroids[c] = std::move(sums[c]);
    }
  }
  return assign;
}

}  // namespace

std::vector<SimPoint> select_pinpoints(TraceSource& trace,
                                       std::size_t num_blocks,
                                       const SimBudget& budget,
                                       std::uint64_t seed) {
  VCSTEER_CHECK(budget.interval_uops > 0);
  VCSTEER_CHECK(budget.total_uops >= budget.interval_uops);
  trace.reset();

  const std::size_t n_intervals =
      static_cast<std::size_t>(budget.total_uops / budget.interval_uops);
  std::vector<Bbv> bbvs;
  bbvs.reserve(n_intervals);
  for (std::size_t i = 0; i < n_intervals; ++i) {
    Bbv bbv(num_blocks, 0.0);
    for (std::uint64_t u = 0; u < budget.interval_uops; ++u) {
      trace.next();
      bbv[trace.current_block()] += 1.0;
    }
    for (double& v : bbv) v /= static_cast<double>(budget.interval_uops);
    bbvs.push_back(std::move(bbv));
  }

  vcsteer::Rng rng(seed);
  const std::uint32_t k = static_cast<std::uint32_t>(
      std::min<std::size_t>(budget.max_phases, bbvs.size()));
  const std::vector<std::uint32_t> assign = kmeans(bbvs, k, rng);

  // Per cluster: centroid, population, and the member interval closest to
  // the centroid becomes the simulation point.
  std::vector<Bbv> centroids(k, Bbv(num_blocks, 0.0));
  std::vector<std::uint32_t> population(k, 0);
  for (std::size_t i = 0; i < bbvs.size(); ++i) {
    for (std::size_t d = 0; d < num_blocks; ++d) {
      centroids[assign[i]][d] += bbvs[i][d];
    }
    ++population[assign[i]];
  }
  std::vector<SimPoint> points;
  for (std::uint32_t c = 0; c < k; ++c) {
    if (population[c] == 0) continue;
    for (double& v : centroids[c]) v /= population[c];
    double best = std::numeric_limits<double>::max();
    std::size_t best_i = 0;
    for (std::size_t i = 0; i < bbvs.size(); ++i) {
      if (assign[i] != c) continue;
      const double d = sq_distance(bbvs[i], centroids[c]);
      if (d < best) {
        best = d;
        best_i = i;
      }
    }
    SimPoint p;
    p.start_uop = best_i * budget.interval_uops;
    p.length = budget.interval_uops;
    p.weight = static_cast<double>(population[c]) /
               static_cast<double>(bbvs.size());
    p.phase = c;
    points.push_back(p);
  }
  std::sort(points.begin(), points.end(),
            [](const SimPoint& a, const SimPoint& b) {
              return a.start_uop < b.start_uop;
            });
  return points;
}

std::vector<TraceEntry> collect_interval(TraceSource& trace,
                                         const SimPoint& point) {
  trace.reset();
  trace.skip(point.start_uop);
  return trace.take(point.length);
}

}  // namespace vcsteer::workload
