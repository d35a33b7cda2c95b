// Point-evaluation API.
//
// A sweep grid is a set of (trace, machine, scheme) points; an evaluator is
// a backend that answers "what does this point score" — the seam the sweep
// engine plugs cost/accuracy trade-offs into. There are two, and
// exec::run_sweep calls either through the same two members: source(),
// which also names the result-cache key namespace, and
// evaluate(EvalRequest), which is thread-safe (the sweep calls it
// concurrently from its worker threads, one call per (trace, machine) cell):
//
//   SimEvaluator    cycle-accurate TraceExperiment, bit-identical to the
//                   historical direct run path; results tagged source "sim".
//   ModelEvaluator  src/model/ critical-path estimator, a ranking proxy
//                   that lets a search simulate only its frontier; results
//                   tagged source "model".
//
// The request carries one (trace, machine) cell with *all* its scheme
// requests at once, because both backends amortise per-cell work across
// schemes: the simulator shares one functional warm pass per simulation
// point among the schemes, the model one walk among schemes that walk
// alike (OP and parallel OP). The model also shares work across the cells
// of its lifetime: one materialised trace per (profile, budget), one
// functional memory replay per trace and cache geometry, one software pass
// per trace and pass-options value. exec::run_sweep's two-stage pruned mode
// (--prune-model K) estimates every grid point with one ModelEvaluator and
// spends SimEvaluator only on the top-K frontier.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "harness/experiment.hpp"
#include "workload/profiles.hpp"

namespace vcsteer::eval {

/// Which backend produced a result. Serialised as RunResult::source and
/// namespaced into the exec cache key, so the two kinds can never alias.
enum class Source { kSim, kModel };

const char* source_name(Source s);

/// One (trace, machine) cell: every steering configuration to score on it.
/// The profile arrives with any sweep seed salt already applied.
struct EvalRequest {
  workload::WorkloadProfile profile;
  MachineConfig machine;
  harness::SimBudget budget;
  std::vector<harness::SchemeRequest> schemes;
  // Ignored; kept because perfbench/ still sets it as the 5th field.
  std::uint32_t batch_lanes = 1;
};

struct EvalResponse {
  /// One result per request scheme, in request order, each tagged with the
  /// backend's source.
  std::vector<harness::RunResult> results;
  /// Wall-clock accounting, same phase buckets as the direct path.
  harness::PhaseTimes phases;
  /// Trace experiments constructed serving this call (0 when the backend
  /// reused a memoised trace).
  std::size_t experiments = 0;
};

}  // namespace vcsteer::eval
