// Cycle-accurate evaluation backend: a thin adapter over TraceExperiment.
#pragma once

#include "eval/evaluator.hpp"

namespace vcsteer::eval {

/// Stateless — each call builds the cell's TraceExperiment, exactly like
/// the sweep engine's historical direct path, so results (and the cache
/// entries derived from them) are bit-identical to it.
class SimEvaluator {
 public:
  Source source() const { return Source::kSim; }
  EvalResponse evaluate(const EvalRequest& request);
};

}  // namespace vcsteer::eval
