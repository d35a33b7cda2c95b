// Tests for the memory hierarchy: cache geometry/LRU behaviour, Table 2
// latencies, port arbitration and functional warming.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mem/cache.hpp"
#include "mem/hierarchy.hpp"

namespace vcsteer::mem {
namespace {

CacheConfig tiny_cache() {
  // 4 sets x 2 ways x 64B lines = 512B.
  return CacheConfig{512, 2, 64, 1};
}

TEST(Cache, MissThenHit) {
  Cache c(tiny_cache());
  EXPECT_FALSE(c.access(0x100));
  EXPECT_TRUE(c.access(0x100));
  EXPECT_TRUE(c.access(0x13f));  // same 64B line
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, SetConflictEvictsLru) {
  Cache c(tiny_cache());
  // Three lines mapping to set 0 (stride = 4 sets * 64B = 256B).
  c.access(0x000);
  c.access(0x100);
  c.access(0x000);  // touch: 0x100 becomes LRU
  c.access(0x200);  // evicts 0x100
  EXPECT_TRUE(c.contains(0x000));
  EXPECT_FALSE(c.contains(0x100));
  EXPECT_TRUE(c.contains(0x200));
}

TEST(Cache, DistinctSetsDoNotConflict) {
  Cache c(tiny_cache());
  c.access(0x000);
  c.access(0x040);
  c.access(0x080);
  c.access(0x0c0);
  EXPECT_TRUE(c.contains(0x000));
  EXPECT_TRUE(c.contains(0x040));
  EXPECT_TRUE(c.contains(0x080));
  EXPECT_TRUE(c.contains(0x0c0));
}

TEST(Cache, ContainsDoesNotFill) {
  Cache c(tiny_cache());
  EXPECT_FALSE(c.contains(0x300));
  EXPECT_FALSE(c.contains(0x300));
  EXPECT_EQ(c.misses(), 0u);
}

TEST(Cache, ResetClears) {
  Cache c(tiny_cache());
  c.access(0x40);
  c.reset();
  EXPECT_FALSE(c.contains(0x40));
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
}

// Replays `order` (indices into `lines`, which share one set) and spells
// the outcome of each access: '.' for a hit, '+' for a miss that filled an
// empty way, or the letter ('a' = lines[0]) of the line the miss evicted.
std::string replay(Cache& c, const std::vector<std::uint32_t>& lines,
                   const std::vector<int>& order) {
  std::string outcome;
  for (const int i : order) {
    std::vector<bool> before;
    for (const std::uint32_t line : lines) before.push_back(c.contains(line));
    if (c.access(lines[i])) {
      outcome += '.';
      continue;
    }
    char evicted = '+';
    for (std::size_t k = 0; k < lines.size(); ++k) {
      if (before[k] && !c.contains(lines[k])) {
        evicted = static_cast<char>('a' + k);
      }
    }
    outcome += evicted;
  }
  return outcome;
}

// Every 32-bit address keeps its full tag, with no tag value reserved for
// an empty way: on a 1-byte-line, 1-set cache the tag is the address
// itself, and on the Table 2 L2 0xFFFFFFFF falls in the last set with the
// largest tag. The outcome strings pin the true-LRU eviction order.
TEST(Cache, FullTagsAndEvictionOrder) {
  const std::vector<int> small_order = {0, 1, 2, 3, 0, 4, 1, 5, 2, 0,
                                        3, 4, 5, 1, 0, 2, 2, 4, 3, 5};
  std::vector<int> l2_order;
  for (int i = 0; i < 60; ++i) l2_order.push_back((i * 7 + i / 5) % 19);
  std::vector<std::uint32_t> l2_lines = {0x1ffc0};  // set 2047, tag 0
  for (std::uint32_t k = 0; k < 18; ++k) {
    l2_lines.push_back(0xffffffffu - k * 0x20000);  // set 2047
  }
  struct Case {
    const char* name;
    CacheConfig config;
    std::vector<std::uint32_t> lines;
    std::vector<int> order;
    const char* outcome;
  };
  const Case cases[] = {
      {"1-byte-line, 1-set", CacheConfig{4, 4, 1, 1},
       {0x0, 0xffffffffu, 0x1, 0x80000000u, 0x7fffffffu, 0xfffffffeu},
       small_order, "++++.bcdaebfcade.fba"},
      {"Table 2 L2", MachineConfig{}.l2, l2_lines, l2_order,
       "++++++++..+++..+++..++o...cm...ak...ri...pg...ne...lc...ja.."},
  };
  for (const Case& k : cases) {
    Cache c(k.config);
    EXPECT_FALSE(c.contains(0x0)) << k.name;
    EXPECT_FALSE(c.contains(0xffffffffu)) << k.name;
    EXPECT_FALSE(c.access(0xffffffffu)) << k.name;
    EXPECT_TRUE(c.access(0xffffffffu)) << k.name;
    EXPECT_FALSE(c.contains(0x0)) << k.name;
    c.reset();
    EXPECT_EQ(replay(c, k.lines, k.order), k.outcome) << k.name;
  }
}

TEST(Cache, Table2GeometriesConstruct) {
  const MachineConfig cfg;
  Cache l1(cfg.l1d);
  Cache l2(cfg.l2);
  EXPECT_EQ(l1.config().num_sets(), 128u);
  EXPECT_EQ(l2.config().num_sets(), 2048u);
}

TEST(Hierarchy, LatenciesMatchTable2) {
  const MachineConfig cfg;
  MemoryHierarchy mem(cfg);
  // Cold: L1 miss + L2 miss -> memory latency.
  EXPECT_EQ(mem.load_latency(0x1000, 0), cfg.memory_latency);
  // Now resident in both: L1 hit.
  EXPECT_EQ(mem.load_latency(0x1000, 10), cfg.l1d.hit_latency);
  EXPECT_EQ(mem.stats().l1_hits, 1u);
  EXPECT_EQ(mem.stats().l2_misses, 1u);
}

TEST(Hierarchy, L2HitAfterL1Eviction) {
  const MachineConfig cfg;
  MemoryHierarchy mem(cfg);
  mem.load_latency(0x1000, 0);
  // Evict 0x1000 from L1 by filling its set (128 sets * 64B = 8KB stride,
  // 4 ways -> 5 distinct lines map to the same set).
  for (int i = 1; i <= 4; ++i) {
    mem.load_latency(0x1000 + i * 8192, 100 * i);
  }
  // L1 misses, L2 still holds it.
  EXPECT_EQ(mem.load_latency(0x1000, 1000), cfg.l2.hit_latency);
  EXPECT_GE(mem.stats().l2_hits, 1u);
}

TEST(Hierarchy, ReadPortContentionDelays) {
  MachineConfig cfg;
  cfg.l1_read_ports = 2;
  MemoryHierarchy mem(cfg);
  mem.warm(0x0);
  mem.warm(0x40);
  mem.warm(0x80);
  // Three loads in the same cycle with 2 read ports: the third slips.
  const auto l1 = mem.load_latency(0x0, 50);
  const auto l2 = mem.load_latency(0x40, 50);
  const auto l3 = mem.load_latency(0x80, 50);
  EXPECT_EQ(l1, cfg.l1d.hit_latency);
  EXPECT_EQ(l2, cfg.l1d.hit_latency);
  EXPECT_EQ(l3, cfg.l1d.hit_latency + 1);
  EXPECT_EQ(mem.stats().port_wait_cycles, 1u);
}

TEST(Hierarchy, WritePortSeparateFromReadPorts) {
  MachineConfig cfg;
  MemoryHierarchy mem(cfg);
  mem.warm(0x0);
  mem.warm(0x40);
  mem.warm(0x80);
  // Two reads + one write in one cycle: all proceed (1 write port free).
  EXPECT_EQ(mem.load_latency(0x0, 7), cfg.l1d.hit_latency);
  EXPECT_EQ(mem.load_latency(0x40, 7), cfg.l1d.hit_latency);
  EXPECT_EQ(mem.store_latency(0x80, 7), cfg.l1d.hit_latency);
  // Second write in the same cycle slips.
  EXPECT_EQ(mem.store_latency(0x80, 7), cfg.l1d.hit_latency + 1);
}

TEST(Hierarchy, PortsFreeUpNextCycle) {
  MachineConfig cfg;
  MemoryHierarchy mem(cfg);
  mem.warm(0x0);
  mem.load_latency(0x0, 1);
  mem.load_latency(0x0, 1);
  mem.load_latency(0x0, 2);  // new cycle: no wait
  EXPECT_EQ(mem.stats().port_wait_cycles, 0u);
}

TEST(Hierarchy, WarmInstallsWithoutStats) {
  const MachineConfig cfg;
  MemoryHierarchy mem(cfg);
  mem.warm(0x2000);
  EXPECT_EQ(mem.stats().loads, 0u);
  EXPECT_EQ(mem.load_latency(0x2000, 5), cfg.l1d.hit_latency);
}

TEST(Hierarchy, ResetRestoresColdState) {
  const MachineConfig cfg;
  MemoryHierarchy mem(cfg);
  mem.load_latency(0x3000, 0);
  mem.reset();
  EXPECT_EQ(mem.stats().loads, 0u);
  EXPECT_EQ(mem.load_latency(0x3000, 0), cfg.memory_latency);
}

TEST(Hierarchy, StatsCountKinds) {
  const MachineConfig cfg;
  MemoryHierarchy mem(cfg);
  mem.load_latency(0x0, 0);
  mem.store_latency(0x40, 1);
  mem.store_latency(0x40, 2);
  EXPECT_EQ(mem.stats().loads, 1u);
  EXPECT_EQ(mem.stats().stores, 2u);
}

}  // namespace
}  // namespace vcsteer::mem
