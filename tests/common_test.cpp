// Unit tests for the common module: deterministic RNG, fixed-capacity
// queue, machine configuration validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/config.hpp"
#include "common/fixed_queue.hpp"
#include "common/rng.hpp"
#include "unfinishable_machines.hpp"

namespace vcsteer {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, HashSeedStableAndNameSensitive) {
  EXPECT_EQ(hash_seed("164.gzip-1"), hash_seed("164.gzip-1"));
  EXPECT_NE(hash_seed("164.gzip-1"), hash_seed("164.gzip-2"));
  EXPECT_NE(hash_seed("x", 0), hash_seed("x", 1));
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, GeometricMeanRoughlyMatches) {
  Rng rng(13);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += static_cast<double>(rng.geometric(4.0));
  EXPECT_NEAR(total / n, 4.0, 0.5);
}

TEST(Rng, GeometricDegenerateMeanIsOne) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.geometric(0.5), 1u);
}

TEST(Rng, ZipfInBoundsAndSkewed) {
  Rng rng(21);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.zipf(8, 1.2)];
  EXPECT_GT(counts[0], counts[7] * 2);  // rank 0 much more popular
}

TEST(FixedQueue, FifoOrder) {
  FixedQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  q.push(4);
  q.push(5);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), 4);
  EXPECT_EQ(q.pop(), 5);
  EXPECT_TRUE(q.empty());
}

TEST(FixedQueue, WrapsAroundManyTimes) {
  FixedQueue<int> q(3);
  for (int round = 0; round < 100; ++round) {
    q.push(round);
    EXPECT_EQ(q.pop(), round);
  }
  EXPECT_TRUE(q.empty());
}

TEST(FixedQueue, FullAndTryPush) {
  FixedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.free_slots(), 0u);
}

TEST(FixedQueue, RandomAccessAt) {
  FixedQueue<int> q(4);
  q.push(10);
  q.push(20);
  q.push(30);
  q.pop();
  q.push(40);
  EXPECT_EQ(q.at(0), 20);
  EXPECT_EQ(q.at(1), 30);
  EXPECT_EQ(q.at(2), 40);
  EXPECT_EQ(q.front(), 20);
}

TEST(FixedQueue, ClearResets) {
  FixedQueue<int> q(3);
  q.push(1);
  q.push(2);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push(7);
  EXPECT_EQ(q.front(), 7);
}

TEST(FixedQueue, OverflowAborts) {
  FixedQueue<int> q(1);
  q.push(1);
  EXPECT_DEATH(q.push(2), "overflow");
}

TEST(FixedQueue, PopEmptyAborts) {
  FixedQueue<int> q(1);
  EXPECT_DEATH(q.pop(), "CHECK");
}

TEST(MachineConfig, DefaultTwoClusterIsValidTable2) {
  const MachineConfig cfg = MachineConfig::two_cluster();
  EXPECT_EQ(cfg.validate(), "");
  EXPECT_EQ(cfg.num_clusters, 2u);
  EXPECT_EQ(cfg.fetch_width, 6u);
  EXPECT_EQ(cfg.fetch_to_dispatch, 5u);
  EXPECT_EQ(cfg.decode_width_int + cfg.decode_width_fp, 6u);
  EXPECT_EQ(cfg.iq_int_entries, 48u);
  EXPECT_EQ(cfg.iq_copy_entries, 24u);
  EXPECT_EQ(cfg.l1d.size_bytes, 32u * 1024);
  EXPECT_EQ(cfg.l1d.hit_latency, 3u);
  EXPECT_EQ(cfg.l2.size_bytes, 2u * 1024 * 1024);
  EXPECT_EQ(cfg.l2.hit_latency, 13u);
  EXPECT_GE(cfg.memory_latency, 500u);
  EXPECT_EQ(cfg.lsq_entries, 256u);
}

TEST(MachineConfig, FourClusterPreset) {
  const MachineConfig cfg = MachineConfig::four_cluster();
  EXPECT_EQ(cfg.validate(), "");
  EXPECT_EQ(cfg.num_clusters, 4u);
}

TEST(MachineConfig, ValidateCatchesBadValues) {
  MachineConfig cfg;
  cfg.num_clusters = 0;
  EXPECT_NE(cfg.validate(), "");

  cfg = MachineConfig();
  cfg.l1d.size_bytes = 1000;  // not a multiple of line*assoc
  EXPECT_NE(cfg.validate(), "");

  cfg = MachineConfig();
  cfg.l1d.size_bytes = 3 * 64 * 4;  // 3 sets: not a power of two
  EXPECT_NE(cfg.validate(), "");

  cfg = MachineConfig();
  cfg.op_occupancy_threshold = 0.0;
  EXPECT_NE(cfg.validate(), "");

  cfg = MachineConfig();
  cfg.iq_copy_entries = 0;
  EXPECT_NE(cfg.validate(), "");
}

TEST(MachineConfig, ValidateRejectsMachinesThatCanNeverFinish) {
  for (const testing::UnfinishableMachine& u :
       testing::unfinishable_machines()) {
    EXPECT_EQ(u.machine.validate(), u.problem) << u.change;
  }
  // More clusters than the simulator's per-cluster arrays hold.
  MachineConfig wide = MachineConfig::two_cluster();
  wide.num_clusters = kMaxClusters + 1;
  EXPECT_EQ(wide.validate(), "num_clusters must be at most 8");
  // The boundaries stay valid: one register beyond the architectural count,
  // single ports and 1-wide commit, decode and copy queue, and kMaxClusters
  // clusters. 1-wide decode and a 1-entry copy queue livelock only on
  // traces needing two copies at once, which the simulator's commit
  // watchdog reports (sim_stress_test).
  MachineConfig edge = MachineConfig::two_cluster();
  edge.regfile_int = edge.regfile_fp = 17;
  edge.l1_read_ports = edge.l1_write_ports = 1;
  edge.commit_width_int = edge.commit_width_fp = 1;
  edge.decode_width_int = edge.decode_width_fp = 1;
  edge.iq_copy_entries = 1;
  edge.num_clusters = kMaxClusters;
  EXPECT_EQ(edge.validate(), "");
}

TEST(MachineConfig, CacheSetCount) {
  CacheConfig c{32 * 1024, 4, 64, 3};
  EXPECT_EQ(c.num_sets(), 128u);
}

TEST(MachineConfig, SummaryMentionsClusters) {
  EXPECT_NE(MachineConfig::four_cluster().summary().find("4-cluster"),
            std::string::npos);
}

}  // namespace
}  // namespace vcsteer
