// Experiment driver: the paper's methodology end to end.
//
// For one workload profile:
//   1. generate the synthetic program + memory streams (the "SPEC binary"),
//   2. select PinPoints simulation points with weights (paper §5.1),
//   3. for each steering configuration: run the software pass it needs,
//      instantiate its hardware policy, simulate every simulation point and
//      aggregate the PinPoints-weighted metrics.
// TraceExperiment caches the program and the materialised intervals so a
// bench sweeping five schemes over forty traces only pays generation and
// trace replay once per trace. The replay is one forward walk that takes
// every point's interval and one shared stream of warm addresses, and each
// evaluation warms one cache hierarchy forward from point to point. Trace
// addresses are 32 bits (workload/trace.hpp), so an interval entry takes 8
// bytes and a warm address 4; TraceSource refuses working sets over 4 GiB.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/config.hpp"
#include "compiler/ob_pass.hpp"
#include "compiler/rhop_pass.hpp"
#include "compiler/vc_pass.hpp"
#include "sim/core.hpp"
#include "sim/stats.hpp"
#include "steer/policy.hpp"
#include "workload/generator.hpp"
#include "workload/pinpoints.hpp"

namespace vcsteer::harness {

/// Simulation sizing. Defaults keep a full 40-trace x 5-scheme figure sweep
/// in the tens of seconds; the methodology (intervals + k-means + weights)
/// is identical to the paper's 10M-uop PinPoints at larger sizes.
struct SimBudget {
  std::uint64_t total_uops = 600'000;    ///< trace prefix analysed by PinPoints.
  std::uint64_t interval_uops = 30'000;  ///< simulation-point size.
  std::uint32_t max_phases = 6;          ///< paper uses up to 10.

  static SimBudget smoke() { return {120'000, 20'000, 3}; }

  bool operator==(const SimBudget&) const = default;
};

/// One steering configuration of the paper's Table 3 (plus VC(v->n) forms).
struct SchemeSpec {
  steer::Scheme scheme = steer::Scheme::kOp;
  /// Virtual-cluster count for the VC scheme; 0 = same as cluster count.
  /// E.g. {kVc, 2} on a 4-cluster machine is the paper's VC(2->4).
  std::uint32_t num_vcs = 0;
  /// Override for VcOptions::min_leader_chain (0 = pass_options' default);
  /// used by the chain-granularity ablation.
  std::uint32_t vc_min_leader_chain = 0;

  std::string label(const MachineConfig& machine) const;
};

/// One entry of an evaluation request: a steering configuration. Either a
/// built-in SchemeSpec, or — when `make_policy` is set — a caller-constructed
/// hardware policy (no software pass), labelled and cache-keyed by
/// `custom_tag`, which must encode every parameter of the custom policy.
/// This is the shared request currency of the evaluation API: sweep grids
/// (exec::SweepScheme is an alias), eval::Evaluator requests and
/// TraceExperiment::evaluate all speak it.
struct SchemeRequest {
  SchemeSpec spec;
  std::string custom_tag;
  std::function<std::unique_ptr<steer::SteeringPolicy>(const MachineConfig&)>
      make_policy;

  SchemeRequest() = default;
  SchemeRequest(SchemeSpec s) : spec(s) {}  // NOLINT(google-explicit-constructor)
  SchemeRequest(std::string tag,
                std::function<std::unique_ptr<steer::SteeringPolicy>(
                    const MachineConfig&)> factory)
      : custom_tag(std::move(tag)), make_policy(std::move(factory)) {}

  bool is_custom() const { return static_cast<bool>(make_policy); }
  /// RunResult::scheme for this request: the custom tag, or the spec label.
  std::string label(const MachineConfig& machine) const {
    return is_custom() ? custom_tag : spec.label(machine);
  }
};

/// PinPoints-weighted result of one (trace, machine, scheme) evaluation.
struct RunResult {
  std::string trace;
  std::string scheme;
  /// Which evaluation backend produced this result: "sim" (cycle-accurate
  /// TraceExperiment — the default, and the only value the golden fixtures
  /// ever carry) or "model" (the src/model/ critical-path estimator).
  /// Serialised in the results JSON and the cache entry; part of the cache
  /// key namespace so model estimates can never alias simulation results.
  std::string source = "sim";
  double ipc = 0.0;
  double copies_per_kuop = 0.0;
  double alloc_stalls_per_kuop = 0.0;
  double policy_stalls_per_kuop = 0.0;
  double copy_hops_per_kuop = 0.0;        ///< interconnect links traversed.
  double link_contention_per_kuop = 0.0;  ///< cycles copies waited on links.
  /// Topology-aware decisions that dodged a farther/contended cluster
  /// (SimStats::avoided_contended_links); 0 with flat steering.
  double avoided_contended_per_kuop = 0.0;
  std::uint64_t committed_uops = 0;  ///< total over simulated intervals.
  std::uint64_t cycles = 0;          ///< total over simulated intervals.
  std::uint64_t num_points = 0;      ///< simulation points aggregated.
  sim::SimStats last_interval;       ///< stats of the final interval (diagnostics).

  // Observer-derived occupancy/steering provenance (StatsObserver sink).
  // Entries beyond num_clusters are zero; serialization trims to it.
  std::uint32_t num_clusters = 0;
  /// PinPoints-weighted mean issue-queue (INT+FP) / copy-queue occupancy
  /// per cluster, in entries (= weighted occupancy_sum / weighted cycles).
  std::array<double, sim::kMaxClusters> avg_iq_occupancy{};
  std::array<double, sim::kMaxClusters> avg_copyq_occupancy{};
  /// Per-cluster histogram of per-cycle IQ occupancy over all simulated
  /// intervals (raw cycle counts; sim::kOccupancyBuckets equal slices of
  /// the combined INT+FP capacity, last bucket includes exactly-full).
  std::array<std::array<std::uint64_t, sim::kOccupancyBuckets>,
             sim::kMaxClusters>
      iq_occupancy_hist{};
  /// Dispatches per destination cluster that generated at least one
  /// inter-cluster copy vs. none (steer-decision provenance).
  std::array<std::uint64_t, sim::kMaxClusters> steered_with_copy{};
  std::array<std::uint64_t, sim::kMaxClusters> steered_local{};
};

/// Wall-clock spans of an experiment's work, by phase. Accumulated per
/// TraceExperiment and summed across a sweep into exec::RunSummary — never
/// part of RunResult, which is cached and must stay host-independent.
struct PhaseTimes {
  double trace_build_s = 0;  ///< workload generation + PinPoints + replay.
  double annotate_s = 0;     ///< software passes (OB/RHOP/VC).
  double warmup_s = 0;       ///< cache warming and arming each run.
  double simulate_s = 0;     ///< the cycle loops.

  PhaseTimes& operator+=(const PhaseTimes& o) {
    trace_build_s += o.trace_build_s;
    annotate_s += o.annotate_s;
    warmup_s += o.warmup_s;
    simulate_s += o.simulate_s;
    return *this;
  }
};

class TraceExperiment {
 public:
  TraceExperiment(const workload::WorkloadProfile& profile,
                  const MachineConfig& machine, const SimBudget& budget);
  ~TraceExperiment();
  // warm_addrs() views point into this object's own stream.
  TraceExperiment(const TraceExperiment&) = delete;
  TraceExperiment& operator=(const TraceExperiment&) = delete;

  /// THE evaluation entry point: every request — built-in scheme or custom
  /// policy — of one (trace, machine) cell in one call, on one core. Each
  /// request is annotated once, keeping its policy and its SteerHints
  /// (custom policies get cleared hints); then every simulation point runs
  /// each request in turn from its restored hints. One cache hierarchy is
  /// warmed forward from point to point, only over the addresses between
  /// one point's prefix end and the next's, and every run starts from a
  /// copy of it: one functional warm pass per call, bit-identical to
  /// warming each run locally from empty. Results come back in request
  /// order.
  std::vector<RunResult> evaluate(
      std::span<const SchemeRequest> requests,
      // Ignored; kept because perfbench/ still passes a lane count.
      std::uint32_t batch_lanes = 1);

  const workload::GeneratedWorkload& workload() const { return wl_; }
  const std::vector<workload::SimPoint>& simpoints() const { return points_; }
  /// Materialised trace interval per simulation point, in point order.
  const std::vector<std::vector<workload::TraceEntry>>& intervals() const {
    return intervals_;
  }
  /// Memory-op addresses preceding each simulation point (functional cache
  /// warming), in point order, 4 bytes each like TraceEntry::addr. Each is
  /// a prefix view of one stream the experiment owns, so they all start at
  /// the same address and stay valid for the experiment's lifetime (it is
  /// neither copied nor moved). Consumed by the analytical model, which
  /// warms its functional caches exactly like the simulator does.
  const std::vector<std::span<const std::uint32_t>>& warm_addrs() const {
    return warm_addrs_;
  }
  /// Wall-clock spans accumulated over this experiment's lifetime
  /// (construction + every run so far).
  const PhaseTimes& phases() const { return phases_; }
  // Per-scheme simulate spans; kept only because perfbench/ still calls it.
  const std::map<std::string, double>& scheme_simulate_s() const {
    return scheme_simulate_s_;
  }

 private:
  MachineConfig machine_;
  SimBudget budget_;
  PhaseTimes phases_;
  std::map<std::string, double> scheme_simulate_s_;
  workload::GeneratedWorkload wl_;
  /// The one core every run of this experiment uses: its pools, value
  /// table and cache arrays persist across runs, reset in place instead of
  /// reconstructed. Built on the first evaluate() so cache-served
  /// experiments never allocate it.
  std::unique_ptr<sim::ClusteredCore> core_;
  std::vector<workload::SimPoint> points_;
  std::vector<std::vector<workload::TraceEntry>> intervals_;
  /// Addresses of the memory operations before the last simulation point,
  /// in trace order; never reallocated after construction.
  std::vector<std::uint32_t> warm_stream_;
  /// Per simulation point: the prefix of warm_stream_ preceding it, used to
  /// functionally warm the cache hierarchy.
  std::vector<std::span<const std::uint32_t>> warm_addrs_;
};

/// Per-pair compile-time communication-cost matrix for `n` placement
/// targets (virtual clusters or physical clusters) on `machine`, row-major
/// n^2: cost(i, j) = fixed + per_hop * hops for i != j, 0 on the diagonal.
/// Hops come from the fabric the passes plan for (common/config.hpp
/// topology_distance): the active topology when
/// machine.steer.topology_aware is set, else the ideal fabric, where every
/// pair is one hop whatever the machine's topology. Targets map onto
/// physical clusters modulo num_clusters and distinct targets are never
/// estimated closer than one hop (two VCs sharing a physical cluster today
/// may be remapped apart at any chain leader).
std::vector<double> comm_cost_matrix(const MachineConfig& machine,
                                     std::uint32_t n, double per_hop,
                                     double fixed);

/// Everything a scheme's software pass reads besides the program: the
/// options of its OB, RHOP or VC pass, or std::monostate for the
/// hardware-only schemes, which have no pass. Two (spec, machine) pairs with
/// equal options annotate a program identically.
using PassOptions = std::variant<std::monostate, compiler::ObOptions,
                                 compiler::RhopOptions, compiler::VcOptions>;

/// The options of `spec`'s software pass for `machine`: the only place a
/// pass's settings are chosen. The OB and VC passes estimate communication
/// with comm_cost_matrix, so a flat machine's options are the same on every
/// topology.
PassOptions pass_options(const SchemeSpec& spec, const MachineConfig& machine);

/// Clears `program`'s hints, then runs the pass `options` names (none for
/// std::monostate).
void run_pass(prog::Program& program, const PassOptions& options);

/// Runs the software pass of `spec` over `program` (clearing previous
/// hints): run_pass(program, pass_options(spec, machine)).
void annotate_for_scheme(prog::Program& program, const SchemeSpec& spec,
                         const MachineConfig& machine);

/// Instantiates the hardware policy for `spec`; every scheme's policy is
/// built here.
std::unique_ptr<steer::SteeringPolicy> policy_for_scheme(
    const SchemeSpec& spec, const MachineConfig& machine);

}  // namespace vcsteer::harness
