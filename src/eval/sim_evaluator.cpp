#include "eval/sim_evaluator.hpp"

namespace vcsteer::eval {

EvalResponse SimEvaluator::evaluate(const EvalRequest& request) {
  harness::TraceExperiment experiment(request.profile, request.machine,
                                      request.budget);
  EvalResponse response;
  response.results = experiment.evaluate(request.schemes);
  response.phases = experiment.phases();
  response.experiments = 1;
  return response;
}

}  // namespace vcsteer::eval
