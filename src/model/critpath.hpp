// Analytical critical-path IPC estimator.
//
// The cycle simulator answers "how fast is this config" by replaying every
// micro-op through an event-driven pipeline; this model estimates the same
// answer by walking the dynamic dependence graph once, in program order,
// and propagating *resource-constraint edges* instead of simulating cycles.
// Per micro-op the walk takes about half the simulator's time (README
// "Analytical model & pruned search" has both rates); a pruned search
// saves most of its time by simulating only the model's frontier.
// The technique is that of the PolyArch/prism critical-path tools
// (compcp.hh / cp_dg_builder.hh): every pipeline resource becomes a
// "k-back" edge tying micro-op i to the completion of the micro-op whose
// departure frees the resource, e.g.
//
//   dispatch[i] >= issue[ same-queue op (iq_entries) back ]      (IQ window)
//   issue[i]    >= issue[ same-queue op (issue_width) back ] + 1 (issue rate)
//   dispatch[i] >= commit[ same-ROB op (rob_entries) back ]      (ROB window)
//
// Three constraint mechanisms, matched to how each resource actually frees
// (critpath.cpp):
//
//   Stream    — prefix-maximum k-back lookups for IN-ORDER stages (decode
//               rate, ROB window over in-order commits, commit rate): slots
//               free in stream order, so the k-back lookup is exact, and a
//               wider resource reads an earlier, never-larger entry. Only
//               the last k prefix maxima are kept, in a power-of-two ring of
//               at least k entries (k: the ROB size or the decode/commit
//               width).
//   FreePool  — order statistics for OUT-OF-ORDER windows (issue-queue
//               entries, LSQ, producer copy queues): with capacity C the
//               next acquirer waits for the (n-C+1)-th smallest recorded
//               free time, i.e. the C-th largest, kept as a min-heap of
//               the C largest times (O(C) memory) whose root a later time
//               replaces with one sift-down. A prefix-max here would
//               serialise every micro-op behind one dependent of a cache
//               miss — an in-order machine.
//   RatePool  — first-fit per-cycle placement for issue ports, copy-select
//               slots and link bandwidth: earliest cycle >= ready with a
//               free slot, the same greedy oldest-first select the
//               simulator's back-end performs. Per-cycle counts and
//               next-free links live in a power-of-two ring spanning the
//               cycles from the current dispatch cycle + 1 upward, which no
//               later request can precede; each slot is tagged with the
//               cycle it holds, so slots the dispatch floor has passed read
//               as empty without being cleared.
//
// Each primitive pays per event it records or looks up, not per cycle the
// walk advances or per micro-op the interval holds.
//
// Stream and FreePool bounds are monotone in their resource size by
// construction, so predicted cycles cannot exhibit Graham-style anomalies
// through them; tests/model_test.cpp pins monotonicity across every knob
// (including the RatePool-backed widths) on a machine where each one binds,
// which is what makes the model safe for ranking design points.
//
// Steering is approximated per scheme from the same software hints the
// simulator consumes (OB/RHOP static clusters, VC virtual-cluster ids) and
// a deliberately resource-independent OP heuristic — steering decisions
// must not read queue sizes or widths, or the monotonicity above would not
// survive the steering feedback loop.
//
// Inter-cluster operand transfers follow the simulator's copy path: the
// copy is created at the consumer's dispatch, consumes a decode slot of its
// value's kind (the first-order front-end cost of communication-heavy
// steering), holds a producer copy-queue slot that backpressures dispatch,
// waits for the per-cluster copy select width, then crosses hops (the same
// common/config.hpp topology_distance behind harness::comm_cost_matrix)
// times the link latency plus wakeup/regfile-write endpoint cycles — the
// endpoint charge gated on a non-free fabric so a zero-latency interconnect
// collapses exactly onto the single-cluster bound.
//
// What the model does NOT capture (see README "Analytical model & pruned
// search"): L1 port arbitration, store-to-load forwarding, value-table
// timing races, the exact stall-vs-steer occupancy feedback (the steering
// stand-ins are deliberately resource-independent), and link bandwidth.
// Copies are booked per source cluster at issue_width_copy per cycle
// before the per-(src, dst) link pools. That copy port is a link pool's
// only feeder, so a pool at least issue_width_copy wide never binds, and
// the walk builds link pools only when copies_per_link_cycle <
// issue_width_copy. issue_width_copy is 1 on both presets and in every grid
// in the repository, so no walk there builds one. Ideal, bus and crossbar
// machines therefore get identical estimates, as does a 2-cluster ring,
// and a 4-cluster ring differs only by its hop counts — while the
// simulator's bus is one shared medium whose arbitration costs copies
// cycles. Modelling that (one pool for the whole bus, one per ring
// segment; ROADMAP item 16) gives a pool several feeders, so such pools
// must be built whatever their width. Model numbers are estimates for
// *ranking* design points; they are always labelled source == "model" and
// never enter golden fixtures.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "program/program.hpp"
#include "steer/policy.hpp"
#include "workload/trace.hpp"

namespace vcsteer::model {

/// Critical-path estimate of one simulation-point interval.
struct IntervalEstimate {
  std::uint64_t cycles = 0;
  std::uint64_t committed_uops = 0;
  std::uint64_t copies = 0;     ///< inter-cluster operand transfers charged.
  std::uint64_t copy_hops = 0;  ///< topology links those transfers crossed.
};

/// Functional memory replay: per-interval-entry access latency (0 for
/// non-loads), read from a mem::MemoryHierarchy with `machine`'s caches
/// warmed with `warm_addrs`, as the simulator's runs start. Reads only
/// `machine`'s l1d, l2 and memory_latency. Scheme-independent — compute
/// once per (point, memory geometry) and reuse across every scheme's walk.
std::vector<std::uint32_t> memory_latencies(
    const prog::Program& program,
    std::span<const workload::TraceEntry> interval,
    std::span<const std::uint32_t> warm_addrs, const MachineConfig& machine);

/// The steering approximation the walk uses for `scheme`. Parallel OP is
/// OP steering on the information of the cycle's start (§2.1); the walk
/// steers in program order and has no cycle to start, so it walks as kOp.
/// Requests with the same walked scheme on the same annotated program get
/// the same estimate.
constexpr steer::Scheme walked_scheme(steer::Scheme scheme) {
  return scheme == steer::Scheme::kParallelOp ? steer::Scheme::kOp : scheme;
}

/// Walks `interval` (program already annotated for the scheme) and returns
/// the resource-constrained critical-path estimate. `load_extra` is the
/// matching memory_latencies() vector. `scheme` selects the steering
/// approximation, walked_scheme(scheme); custom policies are approximated
/// as kOp.
IntervalEstimate estimate_interval(
    const prog::Program& program,
    std::span<const workload::TraceEntry> interval,
    std::span<const std::uint32_t> load_extra, const MachineConfig& machine,
    steer::Scheme scheme);

}  // namespace vcsteer::model
