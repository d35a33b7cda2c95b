// Shared simulator test bench: a single-block program executed as a linear
// trace, the micro-op builders tests write it with, a run under static
// steering, and a field-by-field SimStats comparison. The core, interconnect
// and stress tests read it.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/config.hpp"
#include "program/program.hpp"
#include "sim/core.hpp"
#include "sim/stats.hpp"
#include "steer/simple_policies.hpp"
#include "workload/trace.hpp"

namespace vcsteer::sim {

inline isa::ArchReg r(std::uint8_t i) { return {isa::RegFile::kInt, i}; }
inline isa::ArchReg f(std::uint8_t i) { return {isa::RegFile::kFp, i}; }

/// A micro-op of class `op` writing `dst` from `srcs`, hinted to `cluster`
/// (-1: no hint).
inline isa::MicroOp op_on(isa::OpClass op, isa::ArchReg dst,
                          std::initializer_list<isa::ArchReg> srcs,
                          std::int8_t cluster) {
  isa::MicroOp u;
  u.op = op;
  u.has_dst = true;
  u.dst = dst;
  VCSTEER_CHECK(srcs.size() <= 2);
  for (isa::ArchReg s : srcs) u.srcs[u.num_srcs++] = s;
  u.hint.static_cluster = cluster;
  return u;
}

inline isa::MicroOp alu(isa::ArchReg dst,
                        std::initializer_list<isa::ArchReg> srcs,
                        std::int8_t cluster = -1) {
  return op_on(isa::OpClass::kIntAlu, dst, srcs, cluster);
}

/// A load of `dst` whose address comes from `addr`.
inline isa::MicroOp load(isa::ArchReg dst, isa::ArchReg addr,
                         std::int8_t cluster = -1) {
  return op_on(isa::OpClass::kLoad, dst, {addr}, cluster);
}

inline isa::MicroOp div(isa::ArchReg dst, isa::ArchReg src,
                        std::int8_t cluster = -1) {
  return op_on(isa::OpClass::kIntDiv, dst, {src}, cluster);
}

/// The trace address of micro-op `u` in repetition `rep` of the block.
using AddressRule = std::uint32_t (*)(const isa::MicroOp& u, std::uint32_t rep);

/// A fresh cache line per repetition for memory micro-ops, 0 for the rest.
inline std::uint32_t line_per_repeat(const isa::MicroOp& u, std::uint32_t rep) {
  return u.is_mem() ? 0x1000 + rep * 64 : 0;
}

/// A single-block program built from `uops` and a linear trace that
/// executes it `repeats` times, with addresses from `addr_of`.
struct TestBench {
  explicit TestBench(std::vector<isa::MicroOp> uops, std::uint32_t repeats = 1,
                     AddressRule addr_of = line_per_repeat) {
    prog::ProgramBuilder builder("test");
    builder.begin_block();
    for (const isa::MicroOp& u : uops) builder.add(u);
    builder.end_block({{0, 1.0}});
    program = std::make_unique<prog::Program>(std::move(builder).finish());
    for (std::uint32_t rep = 0; rep < repeats; ++rep) {
      for (prog::UopId u = 0; u < uops.size(); ++u) {
        trace.push_back({u, addr_of(uops[u], rep)});
      }
    }
  }

  std::unique_ptr<prog::Program> program;
  std::vector<workload::TraceEntry> trace;
};

/// Runs `bench` on a fresh core of `cfg` under static steering (each
/// micro-op to its hinted cluster), with cold caches.
inline SimStats run_static(const TestBench& bench, const MachineConfig& cfg) {
  ClusteredCore core(cfg, *bench.program);
  steer::StaticFollowerPolicy policy("test");
  return core.run(bench.trace, policy);
}

/// Every SimStats counter, compared one by one.
inline void expect_stats_equal(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.committed_uops, b.committed_uops);
  EXPECT_EQ(a.dispatched_uops, b.dispatched_uops);
  EXPECT_EQ(a.copies_generated, b.copies_generated);
  EXPECT_EQ(a.alloc_stalls, b.alloc_stalls);
  EXPECT_EQ(a.policy_stalls, b.policy_stalls);
  EXPECT_EQ(a.rob_stalls, b.rob_stalls);
  EXPECT_EQ(a.lsq_stalls, b.lsq_stalls);
  EXPECT_EQ(a.copyq_stalls, b.copyq_stalls);
  EXPECT_EQ(a.copy_bandwidth_stalls, b.copy_bandwidth_stalls);
  EXPECT_EQ(a.regfile_stalls, b.regfile_stalls);
  EXPECT_EQ(a.frontend_empty, b.frontend_empty);
  EXPECT_EQ(a.dispatched_to, b.dispatched_to);
  EXPECT_EQ(a.occupancy_sum, b.occupancy_sum);
  EXPECT_EQ(a.copies_routed, b.copies_routed);
  EXPECT_EQ(a.copy_hops, b.copy_hops);
  EXPECT_EQ(a.link_busy_cycles, b.link_busy_cycles);
  EXPECT_EQ(a.link_contention_cycles, b.link_contention_cycles);
  EXPECT_EQ(a.copyq_occupancy_sum, b.copyq_occupancy_sum);
  EXPECT_EQ(a.remote_steers_by_hops, b.remote_steers_by_hops);
  EXPECT_EQ(a.avoided_contended_links, b.avoided_contended_links);
  EXPECT_EQ(a.memory.loads, b.memory.loads);
  EXPECT_EQ(a.memory.stores, b.memory.stores);
  EXPECT_EQ(a.memory.l1_hits, b.memory.l1_hits);
  EXPECT_EQ(a.memory.l1_misses, b.memory.l1_misses);
  EXPECT_EQ(a.memory.l2_hits, b.memory.l2_hits);
  EXPECT_EQ(a.memory.l2_misses, b.memory.l2_misses);
  EXPECT_EQ(a.memory.port_wait_cycles, b.memory.port_wait_cycles);
}

}  // namespace vcsteer::sim
