// Scheduling-region formation (superblocks along expected paths).
//
// The paper credits software-only steering with inspecting "a bigger window
// of instructions ... at compile time" (§3.2): compilers schedule regions
// larger than one basic block, formed along the *statically expected* path.
// This is a double-edged sword that the evaluation hinges on: the region
// DDG exposes cross-block dependences (fewer predicted copies), but every
// placement decision is made for the expected path — at runtime the
// machine may take the other arm of a diamond or leave a loop early, so
// compile-time workload estimates degrade. The hybrid scheme's hardware
// side re-checks the real counters at every chain leader; the static
// schemes cannot.
//
// Regions here are superblocks: starting from an unvisited seed block, we
// follow the most-likely CFG successor while it is unvisited, up to a
// length cap. Every block belongs to exactly one region. Each region node
// carries its *reach probability* — the product of branch probabilities
// from the region entry — which the passes use as the execution-weight
// estimate.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/digraph.hpp"
#include "program/program.hpp"

namespace vcsteer::compiler {

struct Region {
  std::vector<prog::BlockId> blocks;     ///< path order.
  std::vector<double> reach_probability; ///< per block, from region entry.
};

struct RegionFormationOptions {
  std::uint32_t max_blocks = 4;
};

/// Partition all blocks into superblock regions (deterministic; seeds are
/// taken in block-id order starting from the program entry).
std::vector<Region> form_regions(const prog::Program& program,
                                 const RegionFormationOptions& options = {});

/// Static latency estimate used by all software passes (loads assume an L1
/// hit: address generation + 3-cycle cache).
double static_latency(const isa::MicroOp& uop);

/// DDG over a whole region: nodes are the region's micro-ops in path order;
/// an edge u -> v with weight latency(u) exists when v reads a register last
/// defined by u earlier on the expected path, across block boundaries.
/// Values entering the region have no producer node — the limited compiler
/// visibility the paper contrasts with hardware steering.
struct RegionDdg {
  graph::Digraph graph;
  std::vector<double> latency;        ///< static latency per node.
  std::vector<double> exec_weight;    ///< reach probability of the node's block.
  std::vector<prog::UopId> uop_of;    ///< node -> program micro-op.
  graph::CriticalPathInfo crit;
};

RegionDdg build_region_ddg(const prog::Program& program, const Region& region);

}  // namespace vcsteer::compiler
