#include "eval/model_evaluator.hpp"

#include <chrono>

#include "common/check.hpp"
#include "model/critpath.hpp"

namespace vcsteer::eval {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

const char* source_name(Source s) {
  return s == Source::kSim ? "sim" : "model";
}

// Trace data is a function of (profile, budget) only — TraceExperiment's
// machine argument affects simulation, not workload generation, PinPoints
// selection or interval replay — so the memo ignores the machine. It
// matches every field of both: workload generation reads every profile
// field, so two profiles sharing a name can still differ in their traces.
ModelEvaluator::TraceData& ModelEvaluator::trace_data_for(
    const EvalRequest& request) {
  std::lock_guard<std::mutex> lock(traces_mutex_);
  for (const std::unique_ptr<TraceData>& data : traces_) {
    if (data->profile == request.profile && data->budget == request.budget) {
      return *data;
    }
  }
  const std::unique_ptr<TraceData>& data =
      traces_.emplace_back(std::make_unique<TraceData>());
  data->profile = request.profile;
  data->budget = request.budget;
  return *data;
}

EvalResponse ModelEvaluator::evaluate(const EvalRequest& request) {
  EvalResponse response;
  TraceData& data = trace_data_for(request);
  {
    std::lock_guard<std::mutex> lock(data.build_mutex);
    if (!data.experiment) {
      data.experiment = std::make_unique<harness::TraceExperiment>(
          request.profile, request.machine, request.budget);
      response.experiments = 1;
    }
    if (!data.billed) {
      // Bill trace construction to the first response that used it; later
      // cells reusing the memoised trace report zero build time, which is
      // what actually happened.
      response.phases.trace_build_s = data.experiment->phases().trace_build_s;
      data.billed = true;
    }
  }
  const harness::TraceExperiment& experiment = *data.experiment;
  const auto& points = experiment.simpoints();
  const auto& intervals = experiment.intervals();
  const auto& warm = experiment.warm_addrs();
  const MachineConfig& machine = request.machine;

  // Functional memory replay is scheme-independent: one pass per cell,
  // shared by every scheme's walk (mirrors the simulator, which warms each
  // simulation point once for all of a cell's schemes).
  const Clock::time_point warm_t0 = Clock::now();
  std::vector<std::vector<std::uint32_t>> load_extra(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    load_extra[p] = model::memory_latencies(experiment.workload().program,
                                            intervals[p], warm[p], machine);
  }
  response.phases.warmup_s = seconds_since(warm_t0);

  for (const harness::SchemeRequest& scheme : request.schemes) {
    // Custom-policy requests carry no software pass and no scheme enum; the
    // model approximates them with the OP heuristic on unannotated hints.
    prog::Program program = experiment.workload().program;
    steer::Scheme approx = steer::Scheme::kOp;
    const Clock::time_point annotate_t0 = Clock::now();
    if (!scheme.is_custom()) {
      harness::annotate_for_scheme(program, scheme.spec, machine);
      approx = scheme.spec.scheme;
    }
    response.phases.annotate_s += seconds_since(annotate_t0);

    // PinPoints-weighted aggregation, same operations in the same order as
    // the simulator's WeightedAccum for the fields the model predicts.
    const Clock::time_point walk_t0 = Clock::now();
    double w_cycles = 0, w_uops = 0, w_copies = 0, w_hops = 0;
    harness::RunResult result;
    result.trace = request.profile.name;
    result.scheme = scheme.label(machine);
    result.source = source_name(Source::kModel);
    result.num_points = points.size();
    result.num_clusters = machine.num_clusters;
    for (std::size_t p = 0; p < points.size(); ++p) {
      const model::IntervalEstimate est = model::estimate_interval(
          program, intervals[p], load_extra[p], machine, approx);
      const double w = points[p].weight;
      w_cycles += w * static_cast<double>(est.cycles);
      w_uops += w * static_cast<double>(est.committed_uops);
      w_copies += w * static_cast<double>(est.copies);
      w_hops += w * static_cast<double>(est.copy_hops);
      result.committed_uops += est.committed_uops;
      result.cycles += est.cycles;
    }
    VCSTEER_CHECK(w_cycles > 0.0 && w_uops > 0.0);
    result.ipc = w_uops / w_cycles;
    result.copies_per_kuop = 1000.0 * w_copies / w_uops;
    result.copy_hops_per_kuop = 1000.0 * w_hops / w_uops;
    const double walk_s = seconds_since(walk_t0);
    response.phases.simulate_s += walk_s;
    response.scheme_simulate_s[result.scheme] += walk_s;
    response.results.push_back(std::move(result));
  }
  return response;
}

}  // namespace vcsteer::eval
