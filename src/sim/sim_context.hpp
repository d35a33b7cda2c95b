// Reusable per-run simulation arena.
//
// Constructing a ClusteredCore sizes every slot pool, the value table, the
// ROB/LSQ, the cache hierarchy arrays and the interconnect link state; a
// sweep that rebuilds the core per scheme pays that allocation work for
// every (trace, machine, scheme) point. SimContext owns one core for a
// fixed (machine, program) pair so consecutive runs — different steering
// policies, different simulation points — reuse all of that storage:
// ClusteredCore::run() starts with a cheap reset() that rewinds counters
// and refills free lists but never deallocates, and the pools keep their
// high-water capacity across runs.
//
// harness::TraceExperiment holds one SimContext for its whole lifetime, so
// a five-scheme sweep over one trace touches the allocator once. The runs
// are bit-identical to fresh-context runs (asserted by
// tests/sim_stress_test.cpp): reset() restores exactly the post-
// construction state.
#pragma once

#include <memory>
#include <vector>

#include "sim/core.hpp"

namespace vcsteer::sim {

class SimContext {
 public:
  SimContext(const MachineConfig& machine, const prog::Program& program)
      : machine_(machine), core_(machine_, program) {}

  /// The arena's core. Each ClusteredCore::run() resets it in place; the
  /// caller never needs to (and must not) reconstruct it between runs.
  ClusteredCore& core() { return core_; }

  /// Lane arena for batched runs: lane `lane` owns a private copy of the
  /// program (schemes annotate hints in place, so lanes armed together
  /// cannot share one Program) and a core bound to that copy. Both persist
  /// across batches — the program contents are copy-assigned per call (the
  /// copy's address, which the core references, is stable on the heap) and
  /// the core is reset in place by the next begin_run, exactly like core().
  ClusteredCore& lane_core(std::size_t lane, const prog::Program& annotated) {
    if (lanes_.size() <= lane) lanes_.resize(lane + 1);
    if (!lanes_[lane]) {
      lanes_[lane] = std::make_unique<LaneArena>(machine_, annotated);
    } else {
      lanes_[lane]->program = annotated;
    }
    return lanes_[lane]->core;
  }

 private:
  struct LaneArena {
    prog::Program program;  ///< stable address: `core` references it.
    ClusteredCore core;
    LaneArena(const MachineConfig& machine, const prog::Program& src)
        : program(src), core(machine, program) {}
  };

  MachineConfig machine_;
  ClusteredCore core_;
  std::vector<std::unique_ptr<LaneArena>> lanes_;
};

}  // namespace vcsteer::sim
