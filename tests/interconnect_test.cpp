// Tests for the inter-cluster interconnect: topology distances,
// per-link bandwidth arbitration (bus/ring/crossbar serialisation), the
// crossbar-with-unlimited-links == ideal-link equivalence (unit level and
// bit-for-bit at the simulator level), contention surfacing in SimStats,
// and sweep determinism (--jobs 8 == --jobs 1) for every topology.
//
// Property section: for every topology, distance() is zero iff from == to,
// is one hop off the diagonal on the ideal link, bus and crossbar and
// matches a written-out table on the 4-cluster ring, respects the triangle
// inequality, is
// symmetric on the single-medium fabrics and a directed hop count with
// n-cycle round trips on the ring; random traffic conserves copies
// (injected == delivered, hops == sum of path distances) and the
// congestion EWMA tracks observed waits.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "exec/sweep.hpp"
#include "sim/interconnect.hpp"
#include "sim_bench.hpp"
#include "workload/profiles.hpp"

namespace vcsteer::sim {
namespace {

constexpr std::uint32_t kUnlimited = ~0u;

MachineConfig machine_with(std::uint32_t clusters, Topology kind,
                           std::uint32_t bandwidth = 1,
                           std::uint32_t latency = 1) {
  MachineConfig cfg = clusters == 2 ? MachineConfig::two_cluster()
                                    : MachineConfig::four_cluster();
  cfg.num_clusters = clusters;  // presets only cover 2/4; tests go to 8
  cfg.interconnect.kind = kind;
  cfg.interconnect.copies_per_link_cycle = bandwidth;
  cfg.interconnect.link_latency = latency;
  return cfg;
}

/// Producers in clusters 0..2 feed consumers in cluster 3 every iteration;
/// redefinition forces a fresh burst of three same-cycle copies that all
/// target cluster 3 (heavy shared-medium contention).
TestBench fan_in_bench(std::uint32_t repeats = 40) {
  return TestBench({alu(r(1), {r(1)}, 0), alu(r(2), {r(2)}, 1),
                    alu(r(3), {r(3)}, 2), alu(r(4), {r(1)}, 3),
                    alu(r(5), {r(2)}, 3), alu(r(6), {r(3)}, 3)},
                   repeats);
}

// -------------------------------------------------------------- unit level --

TEST(Interconnect, IdealIsContentionFree) {
  Interconnect ic(machine_with(4, Topology::kIdeal));
  EXPECT_EQ(ic.route_copy(0, 1, 10), 11u);
  EXPECT_EQ(ic.route_copy(0, 1, 10), 11u);  // unlimited bandwidth
  EXPECT_EQ(ic.route_copy(2, 3, 10), 11u);
  EXPECT_EQ(ic.stats().copies_routed, 3u);
  EXPECT_EQ(ic.stats().link_contention_cycles, 0u);
  EXPECT_EQ(ic.distance(1, 1), 0u);
  EXPECT_EQ(ic.distance(0, 3), 1u);
}

TEST(Interconnect, CrossbarWithUnlimitedLinksMatchesIdeal) {
  Interconnect ideal(machine_with(4, Topology::kIdeal));
  Interconnect xbar(machine_with(4, Topology::kCrossbar, kUnlimited));
  for (std::uint64_t cycle = 5; cycle < 30; ++cycle) {
    for (std::uint32_t from = 0; from < 4; ++from) {
      for (std::uint32_t to = 0; to < 4; ++to) {
        if (from == to) continue;
        EXPECT_EQ(xbar.route_copy(from, to, cycle),
                  ideal.route_copy(from, to, cycle));
      }
    }
  }
  EXPECT_EQ(xbar.stats().link_contention_cycles, 0u);
}

TEST(Interconnect, CrossbarSerialisesPerPairButNotAcrossPairs) {
  Interconnect ic(machine_with(4, Topology::kCrossbar));
  EXPECT_EQ(ic.route_copy(0, 1, 10), 11u);
  EXPECT_EQ(ic.route_copy(0, 1, 10), 12u);  // same link: next cycle
  EXPECT_EQ(ic.route_copy(0, 2, 10), 11u);  // different link: no contention
  EXPECT_EQ(ic.route_copy(2, 1, 10), 11u);
  EXPECT_EQ(ic.stats().link_contention_cycles, 1u);
}

TEST(Interconnect, BusSerialisesAllContendingCopies) {
  Interconnect ic(machine_with(4, Topology::kBus));
  EXPECT_EQ(ic.route_copy(0, 1, 10), 11u);
  EXPECT_EQ(ic.route_copy(2, 3, 10), 12u);  // one shared medium
  EXPECT_EQ(ic.route_copy(3, 1, 10), 13u);
  EXPECT_EQ(ic.route_copy(1, 0, 14), 15u);  // bus free again
  EXPECT_EQ(ic.stats().link_contention_cycles, 3u);

  Interconnect wide(machine_with(4, Topology::kBus, 2));
  EXPECT_EQ(wide.route_copy(0, 1, 10), 11u);
  EXPECT_EQ(wide.route_copy(2, 3, 10), 11u);  // 2 copies/cycle fit
  EXPECT_EQ(wide.route_copy(3, 1, 10), 12u);
}

TEST(Interconnect, RingDistanceIsDirectedHopCount) {
  Interconnect ic(machine_with(4, Topology::kRing));
  EXPECT_EQ(ic.distance(0, 1), 1u);
  EXPECT_EQ(ic.distance(0, 3), 3u);
  EXPECT_EQ(ic.distance(3, 0), 1u);
  EXPECT_EQ(ic.distance(1, 0), 3u);
  EXPECT_EQ(ic.distance(2, 2), 0u);
}

TEST(Interconnect, RingPaysOneLatencyPerHopAndSerialisesSharedLinks) {
  Interconnect ic(machine_with(4, Topology::kRing));
  EXPECT_EQ(ic.route_copy(0, 2, 10), 12u);  // 2 hops x 1 cycle
  // Two copies over the same 1->2 link in the same cycle serialise.
  EXPECT_EQ(ic.route_copy(1, 2, 20), 21u);
  EXPECT_EQ(ic.route_copy(1, 2, 20), 22u);
  EXPECT_EQ(ic.stats().link_contention_cycles, 1u);
  EXPECT_EQ(ic.stats().copy_hops, 4u);

  Interconnect slow(
      machine_with(4, Topology::kRing, /*bandwidth=*/1, /*latency=*/3));
  EXPECT_EQ(slow.route_copy(0, 3, 10), 19u);  // 3 hops x 3 cycles
}

// --------------------------------------------------------- property level --

constexpr Topology kAllTopologies[] = {Topology::kIdeal, Topology::kBus,
                                       Topology::kRing, Topology::kCrossbar};

TEST(InterconnectProperties, DistanceZeroIffEqualAndMatchesWrittenOutHops) {
  for (const Topology kind : kAllTopologies) {
    for (const std::uint32_t n : {2u, 4u, 8u}) {
      Interconnect ic(machine_with(n, kind));
      for (std::uint32_t a = 0; a < n; ++a) {
        for (std::uint32_t b = 0; b < n; ++b) {
          const std::uint32_t d = ic.distance(a, b);
          EXPECT_EQ(d == 0, a == b) << topology_name(kind) << " n=" << n;
          // Every pair is one hop apart on the point-to-point link, the bus
          // and the crossbar.
          if (kind != Topology::kRing) {
            EXPECT_EQ(d, a == b ? 0u : 1u)
                << topology_name(kind) << " n=" << n << " " << a << "->" << b;
          }
        }
      }
    }
  }
  // The 4-cluster ring is directed: row `from`, column `to`, hops forward
  // around 0 -> 1 -> 2 -> 3 -> 0.
  constexpr std::uint32_t kRing4[4][4] = {
      {0, 1, 2, 3},
      {3, 0, 1, 2},
      {2, 3, 0, 1},
      {1, 2, 3, 0},
  };
  Interconnect ring(machine_with(4, Topology::kRing));
  for (std::uint32_t from = 0; from < 4; ++from) {
    for (std::uint32_t to = 0; to < 4; ++to) {
      EXPECT_EQ(ring.distance(from, to), kRing4[from][to])
          << from << "->" << to;
    }
  }
}

TEST(InterconnectProperties, TriangleInequalityHoldsOnEveryTopology) {
  for (const Topology kind : kAllTopologies) {
    for (const std::uint32_t n : {2u, 4u, 8u}) {
      Interconnect ic(machine_with(n, kind));
      for (std::uint32_t a = 0; a < n; ++a) {
        for (std::uint32_t b = 0; b < n; ++b) {
          for (std::uint32_t c = 0; c < n; ++c) {
            EXPECT_LE(ic.distance(a, c),
                      ic.distance(a, b) + ic.distance(b, c))
                << topology_name(kind) << " n=" << n << " via " << b;
          }
        }
      }
    }
  }
}

TEST(InterconnectProperties, SingleMediumFabricsAreSymmetricSingleHop) {
  // Ideal, bus and crossbar place every ordered pair one (symmetric) hop
  // apart — the crossbar's dedicated links are all length 1.
  for (const Topology kind :
       {Topology::kIdeal, Topology::kBus, Topology::kCrossbar}) {
    Interconnect ic(machine_with(4, kind));
    for (std::uint32_t a = 0; a < 4; ++a) {
      for (std::uint32_t b = 0; b < 4; ++b) {
        if (a == b) continue;
        EXPECT_EQ(ic.distance(a, b), 1u) << topology_name(kind);
        EXPECT_EQ(ic.distance(a, b), ic.distance(b, a)) << topology_name(kind);
      }
    }
  }
}

TEST(InterconnectProperties, RingDistanceIsDirectedWithFullRoundTrips) {
  // The unidirectional ring is the one asymmetric fabric: going back means
  // going the long way round, so every a != b round trip is exactly n hops.
  for (const std::uint32_t n : {2u, 4u, 8u}) {
    Interconnect ic(machine_with(n, Topology::kRing));
    for (std::uint32_t a = 0; a < n; ++a) {
      for (std::uint32_t b = 0; b < n; ++b) {
        EXPECT_EQ(ic.distance(a, b), (b + n - a) % n);
        if (a != b) {
          EXPECT_EQ(ic.distance(a, b) + ic.distance(b, a), n);
        }
      }
    }
  }
}

TEST(InterconnectProperties, RandomTrafficConservesCopiesAndHops) {
  // Every injected copy is delivered exactly once (copies_routed == calls),
  // traverses exactly its path's links (copy_hops == sum of distances), and
  // never arrives before the contention-free transit time.
  for (const Topology kind : kAllTopologies) {
    Interconnect ic(machine_with(4, kind, /*bandwidth=*/1, /*latency=*/2));
    Rng rng("conservation", static_cast<std::uint64_t>(kind));
    std::uint64_t cycle = 0;
    std::uint64_t expected_hops = 0;
    const std::uint64_t kCopies = 500;
    for (std::uint64_t i = 0; i < kCopies; ++i) {
      cycle += rng() % 3;  // nondecreasing request cycles, frequent bursts
      const auto from = static_cast<std::uint32_t>(rng() % 4);
      auto to = static_cast<std::uint32_t>(rng() % 4);
      if (to == from) to = (to + 1) % 4;
      const std::uint32_t hops = ic.distance(from, to);
      expected_hops += hops;
      const std::uint64_t arrival = ic.route_copy(from, to, cycle);
      EXPECT_GE(arrival, cycle + 2ull * hops) << topology_name(kind);
    }
    EXPECT_EQ(ic.stats().copies_routed, kCopies) << topology_name(kind);
    EXPECT_EQ(ic.stats().copy_hops, expected_hops) << topology_name(kind);
    EXPECT_EQ(ic.stats().link_busy_cycles, expected_hops) << topology_name(kind);
  }
}

TEST(InterconnectProperties, SimLevelConservationForEveryTopology) {
  // End to end: every copy the dispatch stage generates is injected into
  // the network exactly once, on every topology.
  for (const Topology kind : kAllTopologies) {
    const SimStats stats = run_static(fan_in_bench(), machine_with(4, kind));
    EXPECT_GT(stats.copies_generated, 0u);
    EXPECT_EQ(stats.copies_routed, stats.copies_generated)
        << topology_name(kind);
  }
}

// ------------------------------------------------------- congestion EWMA --

TEST(InterconnectCongestion, IdleLinksReportZeroAndIdealAlwaysDoes) {
  Interconnect ideal(machine_with(4, Topology::kIdeal));
  Interconnect bus(machine_with(4, Topology::kBus));
  EXPECT_EQ(bus.congestion(0, 1), 0.0);
  for (int i = 0; i < 50; ++i) {
    ideal.route_copy(0, 1, 10);
    bus.route_copy(0, 1, static_cast<std::uint64_t>(100 + 10 * i));
  }
  EXPECT_EQ(ideal.congestion(0, 1), 0.0);  // contention-free by definition
  EXPECT_EQ(bus.congestion(0, 1), 0.0);    // spaced-out traffic never waits
  EXPECT_EQ(bus.congestion(2, 2), 0.0);    // self path is free
}

TEST(InterconnectCongestion, BusEwmaRisesUnderContentionAndDecaysAfter) {
  Interconnect bus(machine_with(4, Topology::kBus));
  for (int i = 0; i < 32; ++i) bus.route_copy(i % 3, 3, 10);  // same cycle
  const double hot = bus.congestion(0, 1);
  EXPECT_GT(hot, 1.0);  // waits grew linearly; EWMA follows them up
  // The shared medium reports the same signal for every pair.
  EXPECT_EQ(bus.congestion(2, 0), hot);
  // Conflict-free traffic far in the future pulls the EWMA back down.
  for (int i = 0; i < 32; ++i) {
    bus.route_copy(0, 1, static_cast<std::uint64_t>(1000 + 10 * i));
  }
  EXPECT_LT(bus.congestion(0, 1), hot / 10.0);
}

TEST(InterconnectCongestion, CrossbarIsolatesPairsAndRingSumsPathLinks) {
  Interconnect xbar(machine_with(4, Topology::kCrossbar));
  for (int i = 0; i < 16; ++i) xbar.route_copy(0, 1, 10);
  EXPECT_GT(xbar.congestion(0, 1), 1.0);
  EXPECT_EQ(xbar.congestion(1, 0), 0.0);  // dedicated reverse link is idle
  EXPECT_EQ(xbar.congestion(2, 3), 0.0);

  Interconnect ring(machine_with(4, Topology::kRing));
  for (int i = 0; i < 16; ++i) ring.route_copy(1, 2, 10);  // hammer link 1->2
  const double link = ring.congestion(1, 2);
  EXPECT_GT(link, 1.0);
  // Any path crossing the hot 1->2 link inherits its wait estimate...
  EXPECT_GE(ring.congestion(0, 2), link);
  EXPECT_GE(ring.congestion(1, 3), link);
  // ...and the disjoint 3->0 hop stays clean.
  EXPECT_EQ(ring.congestion(3, 0), 0.0);
}

TEST(InterconnectCongestion, ResetClearsTheSignal) {
  Interconnect bus(machine_with(4, Topology::kBus));
  for (int i = 0; i < 16; ++i) bus.route_copy(0, 1, 10);
  EXPECT_GT(bus.congestion(0, 1), 0.0);
  bus.reset();
  EXPECT_EQ(bus.congestion(0, 1), 0.0);
  EXPECT_EQ(bus.stats().copies_routed, 0u);
}

// --------------------------------------------------------- simulator level --

TEST(InterconnectSim, CrossbarUnlimitedBitIdenticalToIdeal) {
  const TestBench bench = fan_in_bench();
  const SimStats ideal = run_static(bench, machine_with(4, Topology::kIdeal));
  const SimStats xbar =
      run_static(bench, machine_with(4, Topology::kCrossbar, kUnlimited));
  expect_stats_equal(ideal, xbar);
  EXPECT_GT(ideal.copies_routed, 0u);
}

TEST(InterconnectSim, SharedMediaSerialiseCriticalPathCopies) {
  // A fan-out/fan-in loop: r1 (cluster 0) feeds consumers in clusters
  // 1/2/3, and the next iteration's r1 depends on the farthest consumer.
  // With issue_width_copy = 3 all three copies of r1 enter the network in
  // the same cycle, so bus arbitration (one grant per cycle) and ring hop
  // counts (0->3 crosses three shared links) land on the critical path.
  auto chains = [](MachineConfig cfg) {
    cfg.issue_width_copy = 3;
    const TestBench bench({alu(r(1), {r(4)}, 0), alu(r(2), {r(1)}, 1),
                           alu(r(3), {r(1)}, 2), alu(r(4), {r(1)}, 3)},
                          30);
    return run_static(bench, cfg);
  };
  const SimStats ideal = chains(machine_with(4, Topology::kIdeal));
  const SimStats bus = chains(machine_with(4, Topology::kBus));
  const SimStats ring = chains(machine_with(4, Topology::kRing));

  EXPECT_EQ(bus.copies_generated, ideal.copies_generated);
  EXPECT_GT(bus.link_contention_cycles, 0u);
  EXPECT_GT(bus.cycles, ideal.cycles);
  EXPECT_GT(ring.cycles, ideal.cycles);
  EXPECT_GT(ring.copy_hops, ideal.copy_hops);  // backward hops cost 3 links
}

TEST(InterconnectSim, ContentionReachesSimStats) {
  const SimStats bus =
      run_static(fan_in_bench(), machine_with(4, Topology::kBus));
  EXPECT_EQ(bus.copies_routed, bus.copies_generated);
  EXPECT_GE(bus.link_busy_cycles, bus.copies_routed);
  std::uint64_t copyq_occupancy = 0;
  for (const std::uint64_t o : bus.copyq_occupancy_sum) copyq_occupancy += o;
  EXPECT_GT(copyq_occupancy, 0u);
}

// ------------------------------------------------------- sweep determinism --

TEST(InterconnectSweep, ParallelBitIdenticalToSerialForEveryTopology) {
  exec::SweepGrid grid;
  const auto profiles = workload::smoke_profiles();
  grid.profiles.assign(profiles.begin(), profiles.begin() + 1);
  for (const Topology kind : {Topology::kIdeal, Topology::kBus,
                              Topology::kRing, Topology::kCrossbar}) {
    grid.machines.push_back(machine_with(4, kind));
  }
  grid.schemes = {
      harness::SchemeSpec{steer::Scheme::kOp, 0},
      harness::SchemeSpec{steer::Scheme::kVc, 2},
  };
  grid.budget = harness::SimBudget::smoke();

  exec::SweepOptions serial;
  serial.jobs = 1;
  exec::SweepOptions parallel;
  parallel.jobs = 8;
  const exec::SweepResult a = exec::run_sweep(grid, serial);
  const exec::SweepResult b = exec::run_sweep(grid, parallel);
  ASSERT_EQ(a.num_points(), b.num_points());
  for (std::size_t m = 0; m < grid.machines.size(); ++m) {
    for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
      const harness::RunResult& ra = a.at(0, m, s);
      const harness::RunResult& rb = b.at(0, m, s);
      EXPECT_EQ(ra.ipc, rb.ipc);
      EXPECT_EQ(ra.cycles, rb.cycles);
      EXPECT_EQ(ra.copies_per_kuop, rb.copies_per_kuop);
      EXPECT_EQ(ra.copy_hops_per_kuop, rb.copy_hops_per_kuop);
      EXPECT_EQ(ra.link_contention_per_kuop, rb.link_contention_per_kuop);
      expect_stats_equal(ra.last_interval, rb.last_interval);
    }
  }
  // The topologies themselves must disagree somewhere, or the axis is dead.
  EXPECT_NE(a.at(0, 0, 0).cycles, a.at(0, 1, 0).cycles);
}

}  // namespace
}  // namespace vcsteer::sim
