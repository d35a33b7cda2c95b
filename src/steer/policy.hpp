// Steering policy interface.
//
// The steering unit sits in the monolithic front-end (paper Figure 1) and
// decides, per renamed micro-op, which physical cluster receives it — or
// whether to stall the front-end (stall-over-steer, [15][24]). Policies see
// machine state only through SteerView, which exposes exactly the
// information the corresponding hardware could wire in:
//   * occupancy counters (all schemes),
//   * the rename-table value-location bits (dependence-based schemes only —
//     the paper's Table 1 "dependence check" row), as the *sequential* view:
//     updated after every steered micro-op. The *cycle-start* view a
//     renaming-style parallel implementation would see (§2.1) is state of
//     that implementation, not of the machine: ParallelOpPolicy latches it
//     itself from on_dispatched and begin_cycle (steer/op_policy.hpp).
// The hybrid VC policy deliberately uses none of the dependence-check
// machinery: only its VC->PC mapping table and the occupancy counters,
// which is the complexity reduction the paper claims (Table 1).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/config.hpp"
#include "isa/uop.hpp"

namespace vcsteer::steer {

constexpr int kNoHome = -1;

/// What the rename table's value-location bits say about one source
/// operand (SteerView::operand). A cold value (no producer in flight and
/// no recorded home) has home kNoHome and needs no copy in any cluster.
struct Operand {
  static constexpr std::uint32_t kEveryCluster = ~0u;

  int home = kNoHome;  ///< cluster producing/holding the current value.
  /// Bit c set when the value is in cluster c or already being copied there.
  std::uint32_t clusters = kEveryCluster;
  /// The producer has not completed: a remote consumer would put a copy on
  /// the critical path, which the occupancy-aware scheme avoids.
  bool in_flight = false;
};

/// Read-only view of the machine state a steering unit can inspect.
/// Implemented by the simulator core (and by lightweight mocks in tests).
///
/// Contract the event-driven kernel preserves: operand() is a few O(1)
/// reads of the live value table and reflects every micro-op steered
/// earlier in the *same* cycle (the sequential view). Wakeup bookkeeping
/// never changes what it returns — policies cannot observe waiter lists or
/// ready queues, only the occupancy counters below.
class SteerView {
 public:
  virtual ~SteerView() = default;

  virtual std::uint32_t num_clusters() const = 0;

  /// Occupancy of the issue queue that `op` would enter, in entries.
  virtual std::uint32_t iq_occupancy(std::uint32_t cluster,
                                     isa::OpClass op) const = 0;
  virtual std::uint32_t iq_capacity(isa::OpClass op) const = 0;

  /// Micro-ops steered to `cluster` and not yet completed — the workload
  /// balance counters of the paper's Figure 4.
  virtual std::uint32_t inflight(std::uint32_t cluster) const = 0;

  /// Location of `reg`'s current value, reflecting all previously steered
  /// micro-ops (the sequential view).
  virtual Operand operand(isa::ArchReg reg) const = 0;

  /// Interconnect links a copy from `from` to `to` would traverse (0 when
  /// equal): the static topology distance, independent of load. Uniform
  /// single-hop by default so mocks and pre-topology policies are
  /// unaffected; the simulator overrides it with the real topology
  /// (sim/interconnect.hpp), letting policies weigh far clusters against
  /// near ones on non-uniform fabrics (ring).
  virtual std::uint32_t copy_distance(std::uint32_t from,
                                      std::uint32_t to) const {
    return from == to ? 0 : 1;
  }

  /// Recent congestion on the copy path from `from` to `to`, in cycles of
  /// expected extra wait (an EWMA of observed per-link arbitration waits —
  /// see sim/interconnect.hpp). Contention-free by default so mocks and
  /// topology-blind policies are unaffected; the simulator overrides it
  /// with the live interconnect signal, letting topology-aware policies
  /// dodge hot links before queueing behind them.
  virtual double link_congestion(std::uint32_t /*from*/,
                                 std::uint32_t /*to*/) const {
    return 0.0;
  }
};

struct SteerDecision {
  static constexpr int kStall = -1;
  int cluster = kStall;

  static SteerDecision stall() { return SteerDecision{kStall}; }
  static SteerDecision to(std::uint32_t c) {
    return SteerDecision{static_cast<int>(c)};
  }
  bool is_stall() const { return cluster == kStall; }
};

class SteeringPolicy {
 public:
  virtual ~SteeringPolicy() = default;

  /// Called once at the start of every decode cycle that has a micro-op
  /// to steer (lets the parallel policy latch its cycle-start view; most
  /// policies ignore it).
  virtual void begin_cycle(const SteerView& /*view*/) {}

  /// Decide the destination cluster for `uop` (or stall). Must not mutate
  /// externally visible policy state — commit happens in on_dispatched.
  virtual SteerDecision choose(const isa::MicroOp& uop,
                               const SteerView& view) = 0;

  /// Called when the micro-op actually dispatched to `cluster` (a choose()
  /// result can fail to dispatch when downstream resources are full).
  virtual void on_dispatched(const isa::MicroOp& /*uop*/,
                             std::uint32_t /*cluster*/) {}

  /// Per-cluster scores behind the most recent choose() decision, indexed
  /// by cluster, for observability (SteerEvent::scores — see
  /// sim/observer.hpp). Meaning is policy-defined (OP-family: votes on flat
  /// fabrics, higher is better; estimated communication cost with
  /// topology-aware steering, lower is better). Empty for policies that
  /// compute no per-cluster score (static followers, the VC mapper).
  virtual std::span<const double> last_scores() const { return {}; }

  /// Dispatched decisions where a topology-aware policy diverged from the
  /// choice its flat (topology-blind) scoring would have made, to dodge a
  /// farther or more contended cluster. 0 for policies without a
  /// topology-aware mode; the simulator surfaces it as
  /// SimStats::avoided_contended_links.
  virtual std::uint64_t avoided_contended_links() const { return 0; }

  virtual void reset() {}
  virtual std::string name() const = 0;
};

/// The steering schemes of the paper's Table 3 (+ the §2.1 parallel
/// implementation of dependence-based steering as an ablation).
enum class Scheme {
  kOp,          ///< occupancy-aware hardware steering [15] — baseline.
  kOneCluster,  ///< everything to cluster 0.
  kOb,          ///< SPDI operation-based static placement [19].
  kRhop,        ///< RHOP multilevel-partitioning static placement [8].
  kVc,          ///< this paper: hybrid virtual-cluster steering.
  kParallelOp,  ///< §2.1: OP with cycle-start (renaming-style) information.
};

const char* scheme_name(Scheme scheme);

}  // namespace vcsteer::steer
