// Hardware side of the hybrid virtual-cluster scheme (paper §4.3, Figure 4).
//
// The only state is (1) the workload-balance counters — read from SteerView,
// the simulator maintains them anyway — and (2) a small table mapping each
// virtual cluster to a physical cluster. When a chain leader is decoded the
// counters are consulted and the leader's VC is remapped to the least loaded
// physical cluster; all following non-leader micro-ops of that VC simply
// look the mapping up. No dependence checking, no voting, no serialization:
// the per-micro-op work is one table read (paper Table 1).
//
// With MachineConfig::steer.topology_aware set, the leader remap weighs
// chain locality against balance: consecutive chains of the same VC share
// live values, so moving the VC from its current cluster p to c costs
// roughly one copy path p -> c per shared value. The remap score charges
// each candidate its topology transit from p (copy_distance x link latency)
// plus the recent congestion on that path on top of the load counter, so a
// VC hops around a ring instead of bouncing across it — still one table
// write per leader, using only counters the fabric already exposes. With
// the knob off the original least-loaded remap runs unchanged, bit for bit.
#pragma once

#include <vector>

#include "steer/policy.hpp"

namespace vcsteer::steer {

class VcPolicy : public SteeringPolicy {
 public:
  VcPolicy(const MachineConfig& config, std::uint32_t num_vcs);

  SteerDecision choose(const isa::MicroOp& uop, const SteerView& view) override;
  void on_dispatched(const isa::MicroOp& uop, std::uint32_t cluster) override;
  void reset() override;
  std::string name() const override;

  /// Current VC->PC mapping (for tests and diagnostics).
  int mapping(std::uint32_t vc) const { return table_[vc]; }
  std::uint64_t remaps() const { return remaps_; }
  std::uint64_t avoided_contended_links() const override {
    return avoided_contended_;
  }

 private:
  std::uint32_t least_loaded(const SteerView& view) const;
  /// Topology-aware remap target for a VC currently mapped to `prev`
  /// (kNoHome when unmapped): load plus the transit/congestion cost of
  /// moving the chain's live values from `prev`.
  std::uint32_t aware_remap(const SteerView& view, int prev);

  bool topology_aware_;
  std::uint32_t link_latency_;
  std::uint32_t num_vcs_;
  std::vector<int> table_;  ///< VC -> physical cluster, kNoHome when unmapped.
  std::uint64_t remaps_ = 0;
  std::uint64_t avoided_contended_ = 0;
  int pending_avoided_cluster_ = -1;
};

}  // namespace vcsteer::steer
