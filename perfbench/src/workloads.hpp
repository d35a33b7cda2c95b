// The three perfbench workloads. Each has an untraced pass (end-to-end
// metrics, timed for RunConfig::seconds) and a traced pass (one untraced and
// one traced repetition of the same cells; per-layer metrics, the tracing
// overhead and the spans).
#pragma once

#include "trace.hpp"
#include "util.hpp"

namespace perfbench {

/// Fig 5 + Fig 7 grids over the six smoke traces at the default budget,
/// run_sweep(jobs=1) into a fresh on-disk ResultCache.
Outcome figs_cold(const RunConfig& cfg);
Outcome figs_cold_traced(const RunConfig& cfg, TracedRun* run);

/// Model-pruned design-space search: ~1000 points, run_sweep(jobs=4,
/// prune_top_k), smoke budget, no cache.
Outcome search_pruned(const RunConfig& cfg);
Outcome search_pruned_traced(const RunConfig& cfg, TracedRun* run);

/// Four StoreClients against a private vcsteer-sweepd: LEASE -> PUT -> DONE
/// until each sweep drains, then every client assembles the grid by GET.
Outcome sweepd_lease(const RunConfig& cfg);
Outcome sweepd_lease_traced(const RunConfig& cfg, TracedRun* run);

}  // namespace perfbench
