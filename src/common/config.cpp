#include "common/config.hpp"

#include <cstdio>

#include "isa/uop.hpp"

namespace vcsteer {
namespace {

bool is_pow2(std::uint32_t x) { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace

const char* topology_name(Topology t) {
  switch (t) {
    case Topology::kIdeal: return "ideal";
    case Topology::kBus: return "bus";
    case Topology::kRing: return "ring";
    case Topology::kCrossbar: return "crossbar";
  }
  return "?";
}

std::uint32_t topology_distance(Topology kind, std::uint32_t num_clusters,
                                std::uint32_t from, std::uint32_t to) {
  if (from == to) return 0;
  switch (kind) {
    case Topology::kIdeal:
    case Topology::kBus:
    case Topology::kCrossbar:
      return 1;  // one medium / one dedicated link per pair
    case Topology::kRing:
      return (to + num_clusters - from) % num_clusters;
  }
  return 1;
}

MachineConfig MachineConfig::two_cluster() { return MachineConfig{}; }

MachineConfig MachineConfig::four_cluster() {
  MachineConfig cfg;
  cfg.num_clusters = 4;
  return cfg;
}

std::string MachineConfig::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%u-cluster, %u+%u decode, IQ %u/%u/%u, %s link %u cycle",
                num_clusters, decode_width_int, decode_width_fp,
                iq_int_entries, iq_fp_entries, iq_copy_entries,
                topology_name(interconnect.kind), interconnect.link_latency);
  return buf;
}

std::string MachineConfig::validate() const {
  if (num_clusters == 0) return "num_clusters must be > 0";
  if (num_clusters > kMaxClusters)
    return "num_clusters must be at most " + std::to_string(kMaxClusters);
  if (fetch_width == 0) return "fetch_width must be > 0";
  if (decode_width_int == 0 || decode_width_fp == 0)
    return "decode widths must be > 0";
  if (commit_width_int == 0 || commit_width_fp == 0)
    return "commit widths must be > 0";
  if (iq_int_entries == 0 || iq_fp_entries == 0 || iq_copy_entries == 0)
    return "issue queues must be non-empty";
  if (issue_width_int == 0 || issue_width_fp == 0 || issue_width_copy == 0)
    return "issue widths must be > 0";
  if (rob_int_entries == 0 || rob_fp_entries == 0) return "ROB must be non-empty";
  if (lsq_entries == 0) return "LSQ must be non-empty";
  if (l1_read_ports == 0 || l1_write_ports == 0)
    return "L1 port counts must be > 0";
  // With the ROB drained a cluster holds at most one value per
  // architectural register of a kind, and the next micro-op copies in only
  // values it lacks: one register more fits its destination and copies.
  if (regfile_int <= isa::kNumArchRegs || regfile_fp <= isa::kNumArchRegs)
    return "register files must exceed the architectural register count";
  for (const CacheConfig* c : {&l1d, &l2}) {
    if (c->size_bytes == 0 || c->associativity == 0 || c->line_bytes == 0)
      return "cache geometry must be non-zero";
    if (c->size_bytes % (c->line_bytes * c->associativity) != 0)
      return "cache size must be a multiple of line*assoc";
    if (!is_pow2(c->num_sets())) return "cache set count must be a power of two";
    if (!is_pow2(c->line_bytes)) return "cache line size must be a power of two";
  }
  if (op_occupancy_threshold <= 0.0 || op_occupancy_threshold > 1.0)
    return "op_occupancy_threshold must be in (0, 1]";
  if (interconnect.link_latency == 0) return "link_latency must be > 0";
  if (interconnect.copies_per_link_cycle == 0)
    return "copies_per_link_cycle must be > 0";
  return "";
}

}  // namespace vcsteer
