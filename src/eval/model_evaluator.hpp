// Analytical evaluation backend: the src/model/ critical-path estimator
// behind the point-evaluation API (eval/evaluator.hpp).
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "eval/evaluator.hpp"

namespace vcsteer::eval {

/// Scores cells with model::estimate_interval. Over its lifetime (one
/// run_sweep model stage) the evaluator does each piece of model work once
/// per distinct input, not once per cell, keyed per (profile, budget) trace:
///   - the trace itself (workload generation, PinPoints selection, interval
///     replay), which no machine field shapes;
///   - the functional memory replay, once per cache geometry (L1, L2 and
///     memory latency, all model::memory_latencies reads);
///   - each software pass, once per harness::PassOptions value (all the
///     pass reads besides the program), walked in place without a copy.
/// Within one request, schemes with the same annotated program and the same
/// model::walked_scheme share one walk (OP and parallel OP do). The walk
/// itself reads nearly every machine field and runs per cell. Estimates are
/// bit-identical to doing all of this per cell; each memoised entry bills
/// its build time to the response that built it.
class ModelEvaluator {
 public:
  ModelEvaluator();
  ~ModelEvaluator();

  Source source() const { return Source::kModel; }
  EvalResponse evaluate(const EvalRequest& request);

 private:
  struct TraceData;

  TraceData& trace_data_for(const EvalRequest& request);

  std::mutex traces_mutex_;
  std::vector<std::unique_ptr<TraceData>> traces_;
};

}  // namespace vcsteer::eval
