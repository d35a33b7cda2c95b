#include "harness/experiment.hpp"

#include <algorithm>
#include <chrono>

#include "common/check.hpp"
#include "mem/hierarchy.hpp"
#include "steer/op_policy.hpp"
#include "steer/simple_policies.hpp"
#include "steer/vc_policy.hpp"
#include "workload/trace.hpp"

namespace vcsteer::harness {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Times workload generation from the member-init list so the span lands in
// PhaseTimes::trace_build_s along with PinPoints selection and replay.
workload::GeneratedWorkload timed_generate(
    const workload::WorkloadProfile& profile, PhaseTimes& phases) {
  const Clock::time_point t0 = Clock::now();
  workload::GeneratedWorkload wl = workload::generate(profile);
  phases.trace_build_s += seconds_since(t0);
  return wl;
}

// PinPoints-weighted accumulation of one scheme's simulation points into a
// RunResult. The floating-point operations and their order are part of the
// cached bits: reordering them changes every stored result.
class WeightedAccum {
 public:
  WeightedAccum(std::string trace, std::string scheme,
                std::uint64_t num_points, std::uint32_t num_clusters) {
    result_.trace = std::move(trace);
    result_.scheme = std::move(scheme);
    result_.num_points = num_points;
    result_.num_clusters = num_clusters;
  }

  void add_point(double w, const sim::SimStats& stats,
                 const sim::StatsObserver& obs, std::uint32_t num_clusters) {
    w_cycles_ += w * static_cast<double>(stats.cycles);
    w_uops_ += w * static_cast<double>(stats.committed_uops);
    w_copies_ += w * static_cast<double>(stats.copies_generated);
    w_alloc_ += w * static_cast<double>(stats.alloc_stalls);
    w_policy_ += w * static_cast<double>(stats.policy_stalls);
    w_hops_ += w * static_cast<double>(stats.copy_hops);
    w_contention_ += w * static_cast<double>(stats.link_contention_cycles);
    w_avoided_ += w * static_cast<double>(stats.avoided_contended_links);
    result_.committed_uops += stats.committed_uops;
    result_.cycles += stats.cycles;
    result_.last_interval = stats;
    for (std::uint32_t c = 0; c < num_clusters; ++c) {
      w_occ_[c] += w * static_cast<double>(stats.occupancy_sum[c]);
      w_copyq_occ_[c] += w * static_cast<double>(stats.copyq_occupancy_sum[c]);
      for (std::uint32_t b = 0; b < sim::kOccupancyBuckets; ++b) {
        result_.iq_occupancy_hist[c][b] += obs.hist(c)[b];
      }
      result_.steered_with_copy[c] += obs.steered_with_copy(c);
      result_.steered_local[c] += obs.steered_local(c);
    }
  }

  RunResult finalize(std::uint32_t num_clusters) {
    VCSTEER_CHECK(w_cycles_ > 0.0 && w_uops_ > 0.0);
    result_.ipc = w_uops_ / w_cycles_;
    result_.copies_per_kuop = 1000.0 * w_copies_ / w_uops_;
    result_.alloc_stalls_per_kuop = 1000.0 * w_alloc_ / w_uops_;
    result_.policy_stalls_per_kuop = 1000.0 * w_policy_ / w_uops_;
    result_.copy_hops_per_kuop = 1000.0 * w_hops_ / w_uops_;
    result_.link_contention_per_kuop = 1000.0 * w_contention_ / w_uops_;
    result_.avoided_contended_per_kuop = 1000.0 * w_avoided_ / w_uops_;
    for (std::uint32_t c = 0; c < num_clusters; ++c) {
      result_.avg_iq_occupancy[c] = w_occ_[c] / w_cycles_;
      result_.avg_copyq_occupancy[c] = w_copyq_occ_[c] / w_cycles_;
    }
    return std::move(result_);
  }

 private:
  RunResult result_;
  double w_cycles_ = 0, w_uops_ = 0, w_copies_ = 0, w_alloc_ = 0,
         w_policy_ = 0, w_hops_ = 0, w_contention_ = 0, w_avoided_ = 0;
  std::array<double, kMaxClusters> w_occ_{};
  std::array<double, kMaxClusters> w_copyq_occ_{};
};

// The VC scheme's virtual-cluster count: SchemeSpec::num_vcs, where 0
// means one per physical cluster.
std::uint32_t vc_count(const SchemeSpec& spec, const MachineConfig& machine) {
  return spec.num_vcs == 0 ? machine.num_clusters : spec.num_vcs;
}

}  // namespace

std::string SchemeSpec::label(const MachineConfig& machine) const {
  if (scheme != steer::Scheme::kVc) return steer::scheme_name(scheme);
  return "VC(" + std::to_string(vc_count(*this, machine)) + "->" +
         std::to_string(machine.num_clusters) + ")";
}

std::vector<double> comm_cost_matrix(const MachineConfig& machine,
                                     std::uint32_t n, double per_hop,
                                     double fixed) {
  VCSTEER_CHECK(n >= 1);
  // A flat machine plans for the ideal fabric: every pair is one hop.
  const Topology fabric = machine.steer.topology_aware
                              ? machine.interconnect.kind
                              : Topology::kIdeal;
  std::vector<double> cost(static_cast<std::size_t>(n) * n, 0.0);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const std::uint32_t hops = std::max(
          1u, topology_distance(fabric, machine.num_clusters,
                                i % machine.num_clusters,
                                j % machine.num_clusters));
      cost[i * n + j] = fixed + per_hop * static_cast<double>(hops);
    }
  }
  return cost;
}

PassOptions pass_options(const SchemeSpec& spec, const MachineConfig& machine) {
  switch (spec.scheme) {
    case steer::Scheme::kOb:
      // SPDI models a cheap operand network (EDGE grids), so it
      // underestimates the copy cost of a clustered machine and splits
      // chains more freely than VC does — the copy excess of Fig. 6(a.1).
      // Half a cycle per hop, no fixed cost.
      return compiler::ObOptions{
          machine.num_clusters,
          comm_cost_matrix(machine, machine.num_clusters, /*per_hop=*/0.5,
                           /*fixed=*/0.0)};
    case steer::Scheme::kRhop:
      return compiler::RhopOptions{machine.num_clusters};
    case steer::Scheme::kVc: {
      const std::uint32_t vcs = vc_count(spec, machine);
      // One link transit per hop plus one cycle of copy issue/writeback.
      const auto per_hop =
          static_cast<double>(machine.interconnect.link_latency);
      // Chains of three or more get a leader unless the spec says otherwise
      // (the chain-granularity ablation).
      return compiler::VcOptions{
          vcs, comm_cost_matrix(machine, vcs, per_hop, /*fixed=*/1.0),
          static_cast<double>(machine.issue_width_int),
          spec.vc_min_leader_chain != 0 ? spec.vc_min_leader_chain : 3};
    }
    default:
      return std::monostate{};  // hardware-only schemes need no annotations
  }
}

void run_pass(prog::Program& program, const PassOptions& options) {
  program.clear_hints();
  if (const auto* ob = std::get_if<compiler::ObOptions>(&options)) {
    compiler::assign_ob(program, *ob);
  } else if (const auto* rhop = std::get_if<compiler::RhopOptions>(&options)) {
    compiler::assign_rhop(program, *rhop);
  } else if (const auto* vc = std::get_if<compiler::VcOptions>(&options)) {
    compiler::assign_virtual_clusters(program, *vc);
  }
}

void annotate_for_scheme(prog::Program& program, const SchemeSpec& spec,
                         const MachineConfig& machine) {
  run_pass(program, pass_options(spec, machine));
}

std::unique_ptr<steer::SteeringPolicy> policy_for_scheme(
    const SchemeSpec& spec, const MachineConfig& machine) {
  switch (spec.scheme) {
    case steer::Scheme::kOp:
      return std::make_unique<steer::OpPolicy>(machine);
    case steer::Scheme::kParallelOp:
      return std::make_unique<steer::ParallelOpPolicy>(machine);
    case steer::Scheme::kOneCluster:
      return std::make_unique<steer::OneClusterPolicy>();
    // OB and RHOP share the static-assignment follower; they differ only in
    // the software pass.
    case steer::Scheme::kOb:
      return std::make_unique<steer::StaticFollowerPolicy>("OB");
    case steer::Scheme::kRhop:
      return std::make_unique<steer::StaticFollowerPolicy>("RHOP");
    case steer::Scheme::kVc:
      // The VC table holds as many virtual clusters as the pass used.
      return std::make_unique<steer::VcPolicy>(machine,
                                               vc_count(spec, machine));
  }
  VCSTEER_CHECK_MSG(false, "unknown steering scheme");
}

TraceExperiment::TraceExperiment(const workload::WorkloadProfile& profile,
                                 const MachineConfig& machine,
                                 const SimBudget& budget)
    : machine_(machine),
      budget_(budget),
      wl_(timed_generate(profile, phases_)) {
  const Clock::time_point t0 = Clock::now();
  workload::TraceSource trace(wl_);
  points_ = workload::select_pinpoints(trace, wl_.program.num_blocks(), budget,
                                       profile.seed(/*stream=*/3));
  VCSTEER_CHECK(!points_.empty());
  // One forward walk from uop 0: every point's warm addresses are a prefix
  // of the memory-op addresses before the last point, so all points share
  // one stream. It holds at most one address per micro-op before the last
  // point; reserving that up front means it is never reallocated (the
  // views stay valid) nor transiently doubled, and untouched capacity is
  // not resident.
  warm_stream_.reserve(points_.back().start_uop);
  intervals_.reserve(points_.size());
  warm_addrs_.reserve(points_.size());
  const auto collect = [&](const workload::TraceEntry& e) {
    if (wl_.program.uop(e.uop).is_mem()) warm_stream_.push_back(e.addr);
  };
  trace.reset();
  for (const workload::SimPoint& p : points_) {
    VCSTEER_CHECK_MSG(p.start_uop >= trace.position(),
                      "simulation points must be sorted and disjoint");
    // The previous point's interval precedes this one, so it warms it too.
    if (!intervals_.empty()) {
      for (const workload::TraceEntry& e : intervals_.back()) collect(e);
    }
    while (trace.position() < p.start_uop) collect(trace.next());
    warm_addrs_.emplace_back(warm_stream_.data(), warm_stream_.size());
    intervals_.push_back(trace.take(p.length));
  }
  phases_.trace_build_s += seconds_since(t0);
}

TraceExperiment::~TraceExperiment() = default;

std::vector<RunResult> TraceExperiment::evaluate(
    std::span<const SchemeRequest> requests, std::uint32_t /*batch_lanes*/) {
  VCSTEER_CHECK(!requests.empty());
  prog::Program& program = wl_.program;

  // Annotate each request once, keeping its hardware policy and the hints
  // its software pass wrote (custom policies keep cleared hints).
  std::vector<std::unique_ptr<steer::SteeringPolicy>> policies;
  std::vector<std::vector<isa::SteerHint>> hints;
  std::vector<WeightedAccum> accs;
  policies.reserve(requests.size());
  hints.reserve(requests.size());
  accs.reserve(requests.size());
  for (const SchemeRequest& req : requests) {
    std::vector<isa::SteerHint>& saved = hints.emplace_back(program.num_uops());
    if (req.is_custom()) {
      policies.push_back(req.make_policy(machine_));
      VCSTEER_CHECK_MSG(policies.back() != nullptr,
                        "custom factory returned null");
    } else {
      const Clock::time_point t0 = Clock::now();
      annotate_for_scheme(program, req.spec, machine_);
      phases_.annotate_s += seconds_since(t0);
      for (prog::UopId u = 0; u < saved.size(); ++u) {
        saved[u] = program.uop(u).hint;
      }
      policies.push_back(policy_for_scheme(req.spec, machine_));
    }
    accs.emplace_back(wl_.profile.name, req.label(machine_), points_.size(),
                      machine_.num_clusters);
  }

  // One core for the experiment's lifetime: every request and simulation
  // point reuses it, reset in place per run.
  if (!core_) core_ = std::make_unique<sim::ClusteredCore>(machine_, program);
  sim::ClusteredCore& core = *core_;
  // Caches warmed forward from point to point: functional warming depends
  // only on the addresses since reset, so warming the next point's extra
  // prefix gives what warming its whole prefix from empty would. Every run
  // starts from a copy of it.
  mem::MemoryHierarchy warmed(machine_);
  std::size_t warmed_addrs = 0;
  std::vector<double> simulate_s(requests.size(), 0.0);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const Clock::time_point tw = Clock::now();
    for (const std::uint32_t addr : warm_addrs_[i].subspan(warmed_addrs)) {
      warmed.warm(addr);
    }
    warmed_addrs = warm_addrs_[i].size();
    phases_.warmup_s += seconds_since(tw);
    for (std::size_t k = 0; k < requests.size(); ++k) {
      const Clock::time_point t0 = Clock::now();
      for (prog::UopId u = 0; u < hints[k].size(); ++u) {
        program.mutable_uop(u).hint = hints[k][u];
      }
      const sim::SimStats stats =
          core.run(intervals_[i], *policies[k], &warmed);
      simulate_s[k] += seconds_since(t0);
      accs[k].add_point(points_[i].weight, stats, core.observer(),
                        machine_.num_clusters);
    }
  }

  std::vector<RunResult> results;
  results.reserve(requests.size());
  for (std::size_t k = 0; k < requests.size(); ++k) {
    RunResult result = accs[k].finalize(machine_.num_clusters);
    phases_.simulate_s += simulate_s[k];
    scheme_simulate_s_[result.scheme] += simulate_s[k];
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace vcsteer::harness
