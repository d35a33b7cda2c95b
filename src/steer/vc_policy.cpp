#include "steer/vc_policy.hpp"

#include <limits>

#include "common/check.hpp"

namespace vcsteer::steer {

VcPolicy::VcPolicy(const MachineConfig& config, std::uint32_t num_vcs)
    : topology_aware_(config.steer.topology_aware),
      link_latency_(config.interconnect.link_latency),
      num_vcs_(num_vcs) {
  VCSTEER_CHECK(num_vcs >= 1 && num_vcs < isa::SteerHint::kNoVc);
  reset();
}

void VcPolicy::reset() {
  table_.assign(num_vcs_, kNoHome);
  remaps_ = 0;
  avoided_contended_ = 0;
  pending_avoided_cluster_ = -1;
}

std::string VcPolicy::name() const {
  return "VC(" + std::to_string(num_vcs_) + ")";
}

std::uint32_t VcPolicy::least_loaded(const SteerView& view) const {
  std::uint32_t best = 0;
  std::uint32_t best_load = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t c = 0; c < view.num_clusters(); ++c) {
    const std::uint32_t load = view.inflight(c);
    if (load < best_load) {
      best_load = load;
      best = c;
    }
  }
  return best;
}

std::uint32_t VcPolicy::aware_remap(const SteerView& view, int prev) {
  pending_avoided_cluster_ = -1;
  if (prev == kNoHome) return least_loaded(view);

  // score(c) = load + move cost from the VC's current cluster: the values
  // the next chain consumes live where the previous chain ran, so a remap
  // pays one prev -> c copy path per shared value. Staying put costs no
  // transit; on a ring the VC drifts to adjacent clusters instead of
  // bouncing across the whole fabric.
  const auto p = static_cast<std::uint32_t>(prev);
  auto score = [&](std::uint32_t c) {
    return static_cast<double>(view.inflight(c)) +
           static_cast<double>(view.copy_distance(p, c)) *
               static_cast<double>(link_latency_) +
           view.link_congestion(p, c);
  };
  std::uint32_t best = 0;
  double best_score = std::numeric_limits<double>::max();
  for (std::uint32_t c = 0; c < view.num_clusters(); ++c) {
    const double s = score(c);
    if (s < best_score) {
      best_score = s;
      best = c;
    }
  }
  const std::uint32_t flat = least_loaded(view);
  if (flat != best && score(flat) > score(best)) {
    pending_avoided_cluster_ = static_cast<int>(best);
  }
  return best;
}

SteerDecision VcPolicy::choose(const isa::MicroOp& uop,
                               const SteerView& view) {
  // Micro-ops without a VC hint (possible when the software pass never saw
  // the block) fall back to the least loaded cluster — the cheapest decision
  // the counters alone can make.
  if (!uop.hint.has_vc()) return SteerDecision::to(least_loaded(view));

  const std::uint32_t vc = uop.hint.vc_id % num_vcs_;
  if (uop.hint.chain_leader || table_[vc] == kNoHome) {
    // Figure 4: chain leader -> check workload counters, remap the VC.
    if (topology_aware_) {
      return SteerDecision::to(aware_remap(view, table_[vc]));
    }
    return SteerDecision::to(least_loaded(view));
  }
  return SteerDecision::to(static_cast<std::uint32_t>(table_[vc]));
}

void VcPolicy::on_dispatched(const isa::MicroOp& uop, std::uint32_t cluster) {
  if (pending_avoided_cluster_ >= 0 &&
      static_cast<int>(cluster) == pending_avoided_cluster_) {
    ++avoided_contended_;
  }
  pending_avoided_cluster_ = -1;
  if (!uop.hint.has_vc()) return;
  const std::uint32_t vc = uop.hint.vc_id % num_vcs_;
  if (uop.hint.chain_leader || table_[vc] == kNoHome) {
    if (table_[vc] != static_cast<int>(cluster)) ++remaps_;
    table_[vc] = static_cast<int>(cluster);
  }
}

}  // namespace vcsteer::steer
