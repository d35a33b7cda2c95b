// Analytical evaluation backend: the src/model/ critical-path estimator
// behind the Evaluator interface.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "eval/evaluator.hpp"

namespace vcsteer::eval {

/// Scores cells with model::estimate_interval. Trace materialisation (the
/// expensive part the model shares with simulation: workload generation,
/// PinPoints selection, interval replay) is memoised per (profile, budget)
/// across calls, so a sweep visiting one trace under hundreds of machines
/// pays trace construction once. The estimator itself is machine-dependent
/// and runs per call; the functional memory replay is scheme-independent
/// and runs once per call, shared across the cell's schemes.
class ModelEvaluator final : public Evaluator {
 public:
  Source source() const override { return Source::kModel; }
  EvalResponse evaluate(const EvalRequest& request) override;

 private:
  struct TraceData {
    workload::WorkloadProfile profile;  ///< memo key, with `budget`.
    harness::SimBudget budget;
    std::mutex build_mutex;
    std::unique_ptr<harness::TraceExperiment> experiment;
    bool billed = false;  ///< trace_build_s already reported to a response.
  };

  TraceData& trace_data_for(const EvalRequest& request);

  std::mutex traces_mutex_;
  std::vector<std::unique_ptr<TraceData>> traces_;
};

}  // namespace vcsteer::eval
