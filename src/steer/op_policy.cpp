#include "steer/op_policy.hpp"

#include <limits>

namespace vcsteer::steer {

std::uint32_t OpPolicy::flat_preferred(std::span<const Operand> srcs,
                                       const SteerView& view) const {
  const std::uint32_t n = view.num_clusters();

  // Votes per source operand: every cluster already holding (or already
  // receiving a copy of) the value counts — steering there needs no new
  // copy. The rename-table replica bits provide this for free (§4.3). A
  // source still in flight weighs double: consuming it remotely puts a copy
  // on the critical path, whereas a long-ready value's copy can be hidden.
  std::uint32_t votes[kMaxClusters] = {};
  for (const Operand& src : srcs) {
    if (src.home == kNoHome) continue;
    const std::uint32_t weight = src.in_flight ? 2 : 1;
    for (std::uint32_t c = 0; c < n; ++c) {
      if ((src.clusters >> c) & 1u) votes[c] += weight;
    }
  }

  num_scores_ = n;
  for (std::uint32_t c = 0; c < n; ++c) scores_[c] = votes[c];

  // Most votes; tie broken towards the least loaded cluster, so with no
  // votes at all the least loaded cluster wins.
  std::uint32_t preferred = 0;
  std::uint32_t best_votes = 0;
  std::uint32_t best_load = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t c = 0; c < n; ++c) {
    const std::uint32_t load = view.inflight(c);
    if (votes[c] > best_votes ||
        (votes[c] == best_votes && load < best_load)) {
      best_votes = votes[c];
      best_load = load;
      preferred = c;
    }
  }
  return preferred;
}

double OpPolicy::comm_cost(std::span<const Operand> srcs,
                           const SteerView& view,
                           std::uint32_t cluster) const {
  // Estimated cycles of communication steering to `cluster` incurs:
  // for every source whose value is not (and will not be) there, the
  // topology transit (hops x link latency) plus the recent congestion on
  // that path, weighted double when the copy would land on the critical
  // path. This generalises the vote count — on a uniform contention-free
  // fabric, minimising it is maximising votes.
  const double per_hop = static_cast<double>(config_.interconnect.link_latency);
  double cost = 0.0;
  for (const Operand& src : srcs) {
    if (src.home == kNoHome || ((src.clusters >> cluster) & 1u)) continue;
    const double weight = src.in_flight ? 2.0 : 1.0;
    const auto h = static_cast<std::uint32_t>(src.home);
    cost += weight *
            (static_cast<double>(view.copy_distance(h, cluster)) * per_hop +
             view.link_congestion(h, cluster));
  }
  return cost;
}

std::uint32_t OpPolicy::aware_preferred(std::span<const Operand> srcs,
                                        const SteerView& view) {
  const std::uint32_t n = view.num_clusters();
  double cost[kMaxClusters];
  std::uint32_t preferred = 0;
  double best_cost = std::numeric_limits<double>::max();
  std::uint32_t best_load = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t c = 0; c < n; ++c) {
    cost[c] = comm_cost(srcs, view, c);
    const std::uint32_t load = view.inflight(c);
    if (cost[c] < best_cost || (cost[c] == best_cost && load < best_load)) {
      best_cost = cost[c];
      best_load = load;
      preferred = c;
    }
  }
  // Diagnostics: did weighing distance/contention change the decision away
  // from a worse path? Counted only if the micro-op actually dispatches
  // there (on_dispatched), so stalled retries cannot inflate it.
  const std::uint32_t flat = flat_preferred(srcs, view);
  // flat_preferred overwrote the provenance with its votes; the decision
  // was made on costs, so those are what last_scores() reports.
  num_scores_ = n;
  for (std::uint32_t c = 0; c < n; ++c) scores_[c] = cost[c];
  pending_avoided_cluster_ =
      (flat != preferred && cost[flat] > cost[preferred])
          ? static_cast<int>(preferred)
          : -1;
  return preferred;
}

SteerDecision OpPolicy::choose(const isa::MicroOp& uop,
                               const SteerView& view) {
  const std::uint32_t n = view.num_clusters();
  pending_avoided_cluster_ = -1;
  Operand read[2];
  for (std::uint8_t s = 0; s < uop.num_srcs; ++s) {
    read[s] = source(view, uop.srcs[s]);
  }
  const std::span<const Operand> srcs(read, uop.num_srcs);
  const std::uint32_t preferred = config_.steer.topology_aware
                                      ? aware_preferred(srcs, view)
                                      : flat_preferred(srcs, view);

  const std::uint32_t capacity = view.iq_capacity(uop.op);
  if (view.iq_occupancy(preferred, uop.op) < capacity) {
    return SteerDecision::to(preferred);
  }

  // Preferred cluster is full. Stall-over-steer: only divert when another
  // cluster is clearly idle (below the occupancy threshold); otherwise wait
  // for the preferred cluster rather than paying copies on the critical path.
  // The topology-aware variant breaks occupancy ties towards the cheaper
  // communication path instead of taking the first under-threshold cluster.
  const auto threshold = static_cast<std::uint32_t>(
      config_.op_occupancy_threshold * static_cast<double>(capacity));
  int alternative = -1;
  std::uint32_t alt_occ = std::numeric_limits<std::uint32_t>::max();
  double alt_cost = std::numeric_limits<double>::max();
  for (std::uint32_t c = 0; c < n; ++c) {
    if (c == preferred) continue;
    const std::uint32_t occ = view.iq_occupancy(c, uop.op);
    if (occ >= threshold) continue;
    if (config_.steer.topology_aware) {
      const double cost = comm_cost(srcs, view, c);
      if (cost < alt_cost || (cost == alt_cost && occ < alt_occ)) {
        alt_cost = cost;
        alt_occ = occ;
        alternative = static_cast<int>(c);
      }
    } else if (occ < alt_occ) {
      alt_occ = occ;
      alternative = static_cast<int>(c);
    }
  }
  if (alternative >= 0) {
    pending_avoided_cluster_ = -1;  // diverted: the aware pick didn't win
    return SteerDecision::to(static_cast<std::uint32_t>(alternative));
  }
  return SteerDecision::stall();
}

void OpPolicy::on_dispatched(const isa::MicroOp& /*uop*/,
                             std::uint32_t cluster) {
  if (pending_avoided_cluster_ >= 0 &&
      static_cast<int>(cluster) == pending_avoided_cluster_) {
    ++avoided_contended_;
  }
  pending_avoided_cluster_ = -1;
}

void OpPolicy::reset() {
  avoided_contended_ = 0;
  pending_avoided_cluster_ = -1;
}

void ParallelOpPolicy::on_dispatched(const isa::MicroOp& uop,
                                     std::uint32_t cluster) {
  OpPolicy::on_dispatched(uop, cluster);
  if (uop.has_dst) {
    renamed_[isa::flat_reg(uop.dst)] = static_cast<std::int8_t>(cluster);
  }
}

void ParallelOpPolicy::reset() {
  OpPolicy::reset();
  renamed_.fill(kNoHome);
  latched_.fill(kNoHome);
}

Operand ParallelOpPolicy::source(const SteerView& view,
                                 isa::ArchReg reg) const {
  Operand src = view.operand(reg);
  src.home = latched_[isa::flat_reg(reg)];
  src.clusters = src.home == kNoHome
                     ? Operand::kEveryCluster
                     : 1u << static_cast<std::uint32_t>(src.home);
  return src;
}

}  // namespace vcsteer::steer
