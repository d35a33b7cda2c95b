#include "sim/interconnect.hpp"

namespace vcsteer::sim {
namespace {

/// Links the topology's hops claim: none on the contention-free kIdeal
/// fabric, one shared bus, one per ring segment, one per ordered pair.
std::size_t num_links(Topology kind, std::uint32_t n) {
  switch (kind) {
    case Topology::kIdeal: return 0;
    case Topology::kBus: return 1;
    case Topology::kRing: return n;
    case Topology::kCrossbar: return static_cast<std::size_t>(n) * n;
  }
  return 0;
}

}  // namespace

std::uint64_t LinkState::claim(std::uint64_t earliest,
                               std::uint64_t prune_before,
                               std::uint32_t bandwidth) {
  used_.erase(used_.begin(), used_.lower_bound(prune_before));
  std::uint64_t t = earliest;
  for (auto it = used_.lower_bound(earliest); it != used_.end(); ++it) {
    if (it->first > t) break;          // gap: cycle t has no claims yet
    if (it->second < bandwidth) break; // capacity left in cycle t
    t = it->first + 1;
  }
  ++used_[t];
  wait_ewma_ += (static_cast<double>(t - earliest) - wait_ewma_) / 8.0;
  return t;
}

Interconnect::Interconnect(const MachineConfig& config)
    : kind_(config.interconnect.kind),
      n_(config.num_clusters),
      latency_(config.interconnect.link_latency),
      bandwidth_(config.interconnect.copies_per_link_cycle),
      links_(num_links(kind_, n_)) {}

std::uint32_t Interconnect::link(std::uint32_t from, std::uint32_t to,
                                 std::uint32_t hop) const {
  switch (kind_) {
    case Topology::kIdeal: return kNoLink;
    case Topology::kBus: return 0;
    case Topology::kRing: return (from + hop) % n_;
    case Topology::kCrossbar: return from * n_ + to;
  }
  return kNoLink;
}

std::uint64_t Interconnect::route_copy(std::uint32_t from, std::uint32_t to,
                                       std::uint64_t cycle) {
  const std::uint32_t hops = distance(from, to);
  std::uint64_t t = cycle;
  for (std::uint32_t h = 0; h < hops; ++h) {
    const std::uint32_t l = link(from, to, h);
    if (l != kNoLink) {
      const std::uint64_t slot = links_[l].claim(t, cycle, bandwidth_);
      stats_.link_contention_cycles += slot - t;
      t = slot;
    }
    t += latency_;
  }
  ++stats_.copies_routed;
  stats_.copy_hops += hops;
  stats_.link_busy_cycles += hops;
  return t;
}

double Interconnect::congestion(std::uint32_t from, std::uint32_t to) const {
  double sum = 0.0;
  const std::uint32_t hops = distance(from, to);
  for (std::uint32_t h = 0; h < hops; ++h) {
    const std::uint32_t l = link(from, to, h);
    if (l != kNoLink) sum += links_[l].wait_ewma();
  }
  return sum;
}

void Interconnect::reset() {
  stats_ = InterconnectStats{};
  for (LinkState& state : links_) state.reset();
}

}  // namespace vcsteer::sim
