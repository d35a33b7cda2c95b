// Scriptable SteerView for steering-policy tests: a builder that lets a
// test assemble exactly the machine state a policy decision depends on —
// occupancy and inflight counters, value homes/replicas/in-flight bits, and
// (for the topology-aware paths) a per-pair distance matrix plus a per-pair
// congestion matrix. Defaults mirror the SteerView base class: uniform
// single-hop distances, zero congestion, empty queues — so flat-policy
// tests need to script nothing topology-related.
#pragma once

#include <array>
#include <vector>

#include "common/check.hpp"
#include "common/config.hpp"
#include "steer/policy.hpp"

namespace vcsteer::steer {

class FakeSteerView : public SteerView {
 public:
  explicit FakeSteerView(std::uint32_t clusters) : clusters_(clusters) {
    // No more clusters than the policies' per-cluster arrays hold.
    VCSTEER_CHECK(clusters >= 1 && clusters <= kMaxClusters);
    homes_.fill(kNoHome);
    inflight_.fill(0);
    occupancy_.fill(0);
  }

  // --- SteerView ---
  std::uint32_t num_clusters() const override { return clusters_; }
  std::uint32_t iq_occupancy(std::uint32_t c, isa::OpClass) const override {
    return occupancy_[c];
  }
  std::uint32_t iq_capacity(isa::OpClass) const override { return capacity_; }
  std::uint32_t inflight(std::uint32_t c) const override {
    return inflight_[c];
  }
  Operand operand(isa::ArchReg reg) const override {
    const std::uint16_t f = isa::flat_reg(reg);
    if (homes_[f] == kNoHome) return {};
    return {homes_[f], (1u << homes_[f]) | replicas_[f], inflight_regs_[f]};
  }
  std::uint32_t copy_distance(std::uint32_t from,
                              std::uint32_t to) const override {
    if (distance_.empty()) return from == to ? 0 : 1;
    return distance_[from * clusters_ + to];
  }
  double link_congestion(std::uint32_t from, std::uint32_t to) const override {
    if (congestion_.empty()) return 0.0;
    return congestion_[from * clusters_ + to];
  }

  // --- builders (each returns *this for chaining) ---
  FakeSteerView& set_home(isa::ArchReg reg, int cluster,
                          bool in_flight = false) {
    homes_[isa::flat_reg(reg)] = cluster;
    inflight_regs_[isa::flat_reg(reg)] = in_flight;
    return *this;
  }
  FakeSteerView& add_replica(isa::ArchReg reg, std::uint32_t cluster) {
    replicas_[isa::flat_reg(reg)] |= 1u << cluster;
    return *this;
  }
  FakeSteerView& set_inflight(std::uint32_t c, std::uint32_t n) {
    inflight_[c] = n;
    return *this;
  }
  FakeSteerView& set_occupancy(std::uint32_t c, std::uint32_t n) {
    occupancy_[c] = n;
    return *this;
  }
  FakeSteerView& set_capacity(std::uint32_t n) {
    capacity_ = n;
    return *this;
  }
  FakeSteerView& set_distance(std::uint32_t from, std::uint32_t to,
                              std::uint32_t hops) {
    ensure_distance();
    distance_[from * clusters_ + to] = hops;
    return *this;
  }
  /// Unidirectional-ring distances, taken from the same topology_distance
  /// helper the simulator and compiler cost matrices use.
  FakeSteerView& ring_distances() {
    ensure_distance();
    for (std::uint32_t f = 0; f < clusters_; ++f) {
      for (std::uint32_t t = 0; t < clusters_; ++t) {
        distance_[f * clusters_ + t] =
            topology_distance(Topology::kRing, clusters_, f, t);
      }
    }
    return *this;
  }
  FakeSteerView& set_congestion(std::uint32_t from, std::uint32_t to,
                                double cycles) {
    if (congestion_.empty()) {
      congestion_.assign(static_cast<std::size_t>(clusters_) * clusters_, 0.0);
    }
    congestion_[from * clusters_ + to] = cycles;
    return *this;
  }

 private:
  void ensure_distance() {
    if (!distance_.empty()) return;
    distance_.assign(static_cast<std::size_t>(clusters_) * clusters_, 1);
    for (std::uint32_t c = 0; c < clusters_; ++c) {
      distance_[c * clusters_ + c] = 0;
    }
  }

  std::uint32_t clusters_;
  std::uint32_t capacity_ = 48;
  std::array<int, isa::kNumFlatRegs> homes_{};
  std::array<bool, isa::kNumFlatRegs> inflight_regs_{};
  std::array<std::uint32_t, isa::kNumFlatRegs> replicas_{};
  std::array<std::uint32_t, kMaxClusters> inflight_{};
  std::array<std::uint32_t, kMaxClusters> occupancy_{};
  std::vector<std::uint32_t> distance_;   ///< empty = uniform single hop.
  std::vector<double> congestion_;        ///< empty = contention-free.
};

}  // namespace vcsteer::steer
