// Occupancy-aware dependence-based steering (OP) [González, Latorre,
// González, WMPI'04] — the paper's hardware-only baseline — and its
// renaming-style parallel variant (paper §2.1).
//
// OP steers each micro-op, *sequentially within the decode bundle*, to the
// cluster holding most of its source operands; ties go to the least loaded
// cluster. If the preferred cluster's issue queue is full, OP prefers
// stalling the front-end over steering to a busy remote cluster
// (stall-over-steer): it only diverts when some other cluster is below the
// occupancy threshold.
//
// With MachineConfig::steer.topology_aware set, the vote count is replaced
// by a communication-cost score: each missing source charges its topology
// transit (SteerView::copy_distance x link latency) plus the recent
// congestion on that path (SteerView::link_congestion), so OP prefers near,
// quiet clusters over far or contended ones on non-uniform fabrics (ring). On a uniform contention-free
// fabric the score degenerates to the vote count; with the knob off the
// original flat path runs unchanged, bit for bit.
//
// ParallelOpPolicy makes the same decision from the *cycle-start* rename
// view (what a single-pass, renaming-like implementation could read), which
// is exactly the degradation the paper's §2.1 example illustrates. It keeps
// that view itself: the destinations it sees dispatched are latched at the
// next begin_cycle, so a bundle's own renames stay invisible to it.
#pragma once

#include <array>
#include <span>

#include "steer/policy.hpp"

namespace vcsteer::steer {

class OpPolicy : public SteeringPolicy {
 public:
  explicit OpPolicy(const MachineConfig& config) : config_(config) {}

  SteerDecision choose(const isa::MicroOp& uop, const SteerView& view) override;
  void on_dispatched(const isa::MicroOp& uop, std::uint32_t cluster) override;
  void reset() override;
  std::string name() const override { return "OP"; }

  /// Dispatches where the topology-aware score dodged the flat pick's
  /// farther/more-contended cluster (SimStats::avoided_contended_links).
  std::uint64_t avoided_contended_links() const override {
    return avoided_contended_;
  }

  /// Per-cluster scores of the last choose(): votes (flat) or estimated
  /// communication cost (topology-aware). Steer-decision provenance for
  /// the observer layer.
  std::span<const double> last_scores() const override {
    return {scores_.data(), num_scores_};
  }

 protected:
  /// The record the vote and cost loops read for source `reg` (sequential
  /// steering: the live rename-table bits); the parallel variant's hook.
  virtual Operand source(const SteerView& view, isa::ArchReg reg) const {
    return view.operand(reg);
  }

  MachineConfig config_;

 private:
  /// The original occupancy-aware preference: most votes, ties to load.
  std::uint32_t flat_preferred(std::span<const Operand> srcs,
                               const SteerView& view) const;
  /// Topology-aware preference: least estimated communication cost, ties to
  /// load. Records the avoided-contended candidate for on_dispatched.
  std::uint32_t aware_preferred(std::span<const Operand> srcs,
                                const SteerView& view);
  /// Estimated communication cycles of steering `srcs`' reader to `cluster`.
  double comm_cost(std::span<const Operand> srcs, const SteerView& view,
                   std::uint32_t cluster) const;

  std::uint64_t avoided_contended_ = 0;
  int pending_avoided_cluster_ = -1;
  // Provenance for last_scores(); written by choose() via flat_preferred /
  // aware_preferred (mutable: the flat path is logically const).
  mutable std::array<double, kMaxClusters> scores_{};
  mutable std::uint32_t num_scores_ = 0;
};

class ParallelOpPolicy : public OpPolicy {
 public:
  explicit ParallelOpPolicy(const MachineConfig& config) : OpPolicy(config) {
    ParallelOpPolicy::reset();
  }

  /// Latches the homes renamed since the previous decode cycle.
  void begin_cycle(const SteerView& /*view*/) override { latched_ = renamed_; }
  /// Records where `uop`'s destination now lives; invisible to choose()
  /// until the next begin_cycle.
  void on_dispatched(const isa::MicroOp& uop, std::uint32_t cluster) override;
  void reset() override;
  std::string name() const override { return "OP-parallel"; }

 protected:
  /// The latched home, and only the home's bit: a single-pass lookup reads
  /// no replica bits. The in-flight bit stays the live one.
  Operand source(const SteerView& view, isa::ArchReg reg) const override;

 private:
  /// Home of each architectural register's value after the latest
  /// dispatched rename (renamed_) and at the start of the current decode
  /// cycle (latched_); kNoHome until the register's first rename in a run.
  std::array<std::int8_t, isa::kNumFlatRegs> renamed_{};
  std::array<std::int8_t, isa::kNumFlatRegs> latched_{};
};

}  // namespace vcsteer::steer
