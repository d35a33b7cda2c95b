#include "compiler/region.hpp"

#include <array>

#include "common/check.hpp"
#include "isa/uop.hpp"

namespace vcsteer::compiler {
namespace {

/// Length cap of a superblock, in blocks.
constexpr std::size_t kMaxRegionBlocks = 4;

}  // namespace

std::vector<Region> form_regions(const prog::Program& program) {
  const std::size_t n = program.num_blocks();
  std::vector<bool> taken(n, false);
  std::vector<Region> regions;

  auto grow_from = [&](prog::BlockId seed) {
    Region region;
    prog::BlockId current = seed;
    double prob = 1.0;
    while (region.blocks.size() < kMaxRegionBlocks) {
      taken[current] = true;
      region.blocks.push_back(current);
      region.reach_probability.push_back(prob);
      // Follow the most likely successor while it is free.
      const prog::BasicBlock& bb = program.block(current);
      const prog::CfgEdge* best = nullptr;
      for (const prog::CfgEdge& e : bb.succs) {
        if (best == nullptr || e.probability > best->probability) best = &e;
      }
      if (best == nullptr || taken[best->target]) break;
      prob *= best->probability;
      current = best->target;
    }
    regions.push_back(std::move(region));
  };

  // Entry first, then remaining blocks in id order: deterministic and every
  // block ends up in exactly one region.
  grow_from(program.entry());
  for (prog::BlockId b = 0; b < n; ++b) {
    if (!taken[b]) grow_from(b);
  }
  return regions;
}

double static_latency(const isa::MicroOp& uop) {
  double lat = isa::latency(uop.op);
  if (uop.is_load()) lat += 3.0;  // assume L1 hit at compile time
  return lat;
}

RegionDdg build_region_ddg(const prog::Program& program,
                           const Region& region) {
  RegionDdg ddg;
  std::size_t total = 0;
  for (const prog::BlockId b : region.blocks) {
    total += program.block(b).num_uops;
  }
  ddg.graph = graph::Digraph(total);
  ddg.latency.reserve(total);
  ddg.exec_weight.reserve(total);
  ddg.uop_of.reserve(total);

  // last_def threads across block boundaries along the region path — the
  // cross-block visibility software steering is credited with.
  std::array<graph::NodeId, isa::kNumFlatRegs> last_def;
  last_def.fill(graph::kInvalidNode);

  graph::NodeId node = 0;
  for (std::size_t bi = 0; bi < region.blocks.size(); ++bi) {
    const prog::BasicBlock& bb = program.block(region.blocks[bi]);
    for (std::uint32_t i = 0; i < bb.num_uops; ++i, ++node) {
      const prog::UopId uid = bb.uop_at(i);
      const isa::MicroOp& uop = program.uop(uid);
      ddg.uop_of.push_back(uid);
      ddg.latency.push_back(static_latency(uop));
      ddg.exec_weight.push_back(region.reach_probability[bi]);
      for (std::uint8_t s = 0; s < uop.num_srcs; ++s) {
        const graph::NodeId def = last_def[isa::flat_reg(uop.srcs[s])];
        if (def != graph::kInvalidNode && def != node) {
          ddg.graph.add_edge(def, node, ddg.latency[def]);
        }
      }
      if (uop.has_dst) last_def[isa::flat_reg(uop.dst)] = node;
    }
  }
  ddg.crit = graph::critical_paths(ddg.graph, ddg.latency);
  return ddg;
}

}  // namespace vcsteer::compiler
