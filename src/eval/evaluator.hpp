// Point-evaluation API.
//
// A sweep grid is a set of (trace, machine, scheme) points; an Evaluator is
// a backend that answers "what does this point score" — the seam the sweep
// engine plugs cost/accuracy trade-offs into:
//
//   SimEvaluator    cycle-accurate TraceExperiment, bit-identical to the
//                   historical direct run path; results tagged source "sim".
//   ModelEvaluator  src/model/ critical-path estimator, a ranking proxy
//                   that lets a search simulate only its frontier; results
//                   tagged source "model".
//
// The request carries one (trace, machine) cell with *all* its scheme
// requests at once, because both backends amortise per-cell work across
// schemes: the simulator coalesces schemes into batched lanes sharing one
// functional warm pass per simulation point, the model shares one
// materialised trace and one functional memory replay. exec::run_sweep's
// two-stage pruned mode (--prune-model K) estimates every grid point with
// ModelEvaluator and spends SimEvaluator only on the top-K frontier.
#pragma once

#include <cstddef>
#include <map>
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
  /// Lane width for backends that coalesce schemes (SimEvaluator); 1
  /// disables coalescing. Results are bit-identical for every value.
  std::uint32_t batch_lanes = 1;
};

struct EvalResponse {
  /// One result per request scheme, in request order, each tagged with the
  /// backend's source.
  std::vector<harness::RunResult> results;
  /// Wall-clock accounting, same phase buckets as the direct path.
  harness::PhaseTimes phases;
  /// Per-scheme-label simulate/walk span.
  std::map<std::string, double> scheme_simulate_s;
  harness::EvalCounters counters;
  /// Trace experiments constructed serving this call (0 when the backend
  /// reused a memoised trace).
  std::size_t experiments = 0;
};

class Evaluator {
 public:
  virtual ~Evaluator() = default;
  virtual Source source() const = 0;
  /// Thread-safe: the sweep engine calls this concurrently from its worker
  /// pool, one call per (trace, machine) cell.
  virtual EvalResponse evaluate(const EvalRequest& request) = 0;
};

}  // namespace vcsteer::eval
