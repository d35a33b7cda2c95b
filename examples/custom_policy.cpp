// custom_policy: extend the library with your own steering policy.
//
// Implements a round-robin steering unit (the textbook strawman: perfect
// balance, zero locality) against the SteeringPolicy interface, runs it
// through the full simulator next to OP and VC, and prints the comparison.
// This is the extension point a downstream user would use to prototype a
// new steering idea against the paper's baselines.
//
//   $ ./examples/custom_policy [trace-name]
#include <iostream>

#include "harness/experiment.hpp"
#include "sim/core.hpp"
#include "stats/table.hpp"
#include "steer/policy.hpp"
#include "workload/pinpoints.hpp"
#include "workload/profiles.hpp"
#include "workload/trace.hpp"

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

  // Built-in schemes through the harness...
  harness::TraceExperiment experiment(*profile, machine, budget);
  const std::vector<harness::SchemeRequest> schemes = {
      harness::SchemeSpec{steer::Scheme::kOp, 0},
      harness::SchemeSpec{steer::Scheme::kVc, 2}};
  const std::vector<harness::RunResult> builtin = experiment.evaluate(schemes);
  const harness::RunResult& op = builtin[0];
  const harness::RunResult& vc = builtin[1];

  // ...and the custom policy driven manually against the same simulation
  // points (this is all the harness does under the hood).
  workload::GeneratedWorkload wl = workload::generate(*profile);
  wl.program.clear_hints();
  workload::TraceSource trace(wl);
  RoundRobinPolicy rr;
  sim::ClusteredCore core(machine, wl.program);

  double w_cycles = 0, w_uops = 0, w_copies = 0, w_alloc = 0;
  for (const workload::SimPoint& point : experiment.simpoints()) {
    trace.reset();
    std::vector<std::uint32_t> warm;
    for (std::uint64_t u = 0; u < point.start_uop; ++u) {
      const workload::TraceEntry e = trace.next();
      if (wl.program.uop(e.uop).is_mem()) warm.push_back(e.addr);
    }
    const auto interval = trace.take(point.length);
    const sim::SimStats stats = core.run(interval, rr, warm);
    w_cycles += point.weight * static_cast<double>(stats.cycles);
    w_uops += point.weight * static_cast<double>(stats.committed_uops);
    w_copies += point.weight * static_cast<double>(stats.copies_generated);
    w_alloc += point.weight * static_cast<double>(stats.alloc_stalls);
  }

  stats::Table table("custom policy vs built-ins on " + profile->name);
  table.set_columns(
      {"scheme", "IPC", "slowdown vs OP (%)", "copies/kuop", "stalls/kuop"});
  table.row()
      .add(op.scheme)
      .add(op.ipc, 3)
      .add(0.0, 2)
      .add(op.copies_per_kuop, 1)
      .add(op.alloc_stalls_per_kuop, 1);
  table.row()
      .add(vc.scheme)
      .add(vc.ipc, 3)
      .add(stats::slowdown_pct(op.ipc, vc.ipc), 2)
      .add(vc.copies_per_kuop, 1)
      .add(vc.alloc_stalls_per_kuop, 1);
  const double rr_ipc = w_uops / w_cycles;
  table.row()
      .add(rr.name())
      .add(rr_ipc, 3)
      .add(stats::slowdown_pct(op.ipc, rr_ipc), 2)
      .add(1000.0 * w_copies / w_uops, 1)
      .add(1000.0 * w_alloc / w_uops, 1);
  table.print(std::cout);
  return 0;
}
