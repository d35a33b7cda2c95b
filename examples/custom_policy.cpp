// custom_policy: extend the library with your own steering policy.
//
// Implements a round-robin steering unit (the textbook strawman: perfect
// balance, zero locality) against the SteeringPolicy interface, evaluates
// it in the same harness call as OP and VC — a custom SchemeRequest runs
// through the full simulator on the same simulation points — and prints
// the comparison. This is the extension point a downstream user would use
// to prototype a new steering idea against the paper's baselines.
//
//   $ ./examples/custom_policy [trace-name]
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "harness/experiment.hpp"
#include "stats/table.hpp"
#include "steer/policy.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace vcsteer;

/// Round-robin steering: ignores dependences entirely. Great balance,
/// maximal communication — the opposite corner of the design space from
/// one-cluster.
class RoundRobinPolicy : public steer::SteeringPolicy {
 public:
  steer::SteerDecision choose(const isa::MicroOp&,
                              const steer::SteerView& view) override {
    return steer::SteerDecision::to(next_++ % view.num_clusters());
  }
  void reset() override { next_ = 0; }
  std::string name() const override { return "round-robin"; }

 private:
  std::uint32_t next_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const char* trace_name = argc > 1 ? argv[1] : "164.gzip-1";
  const workload::WorkloadProfile* profile =
      workload::find_profile(trace_name);
  if (profile == nullptr) {
    std::fprintf(stderr, "unknown trace '%s'\n", trace_name);
    return 1;
  }

  const MachineConfig machine = MachineConfig::two_cluster();
  const harness::SimBudget budget;

  // Built-in schemes and the custom policy through one harness call.
  harness::TraceExperiment experiment(*profile, machine, budget);
  const std::vector<harness::SchemeRequest> schemes = {
      harness::SchemeSpec{steer::Scheme::kOp, 0},
      harness::SchemeSpec{steer::Scheme::kVc, 2},
      harness::SchemeRequest{"round-robin", [](const MachineConfig&) {
                               return std::make_unique<RoundRobinPolicy>();
                             }}};
  const std::vector<harness::RunResult> results = experiment.evaluate(schemes);
  const harness::RunResult& op = results[0];

  stats::Table table("custom policy vs built-ins on " + profile->name);
  table.set_columns(
      {"scheme", "IPC", "slowdown vs OP (%)", "copies/kuop", "stalls/kuop"});
  for (const harness::RunResult& r : results) {
    table.row()
        .add(r.scheme)
        .add(r.ipc, 3)
        .add(stats::slowdown_pct(op.ipc, r.ipc), 2)
        .add(r.copies_per_kuop, 1)
        .add(r.alloc_stalls_per_kuop, 1);
  }
  table.print(std::cout);
  return 0;
}
