// Machine configuration — the architectural parameters of Table 2 of the
// paper ("A Software-Hardware Hybrid Steering Mechanism for Clustered
// Microarchitectures", IPDPS 2008). Every width, queue size and latency in
// the simulator is read from this struct so that benches can sweep them.
#pragma once

#include <cstdint>
#include <string>

namespace vcsteer {

/// Inter-cluster interconnect topologies. The paper's Table 2 machine uses a
/// contention-free point-to-point link (kIdeal); the others model the
/// bandwidth/latency trade-offs a real copy network would impose.
enum class Topology : std::uint8_t {
  kIdeal = 0,     ///< point-to-point, unlimited bandwidth (Table 2 model).
  kBus = 1,       ///< one shared medium; every copy arbitrates for it.
  kRing = 2,      ///< unidirectional ring; one hop per intermediate cluster.
  kCrossbar = 3,  ///< dedicated link per (src, dst) pair, finite bandwidth.
};

const char* topology_name(Topology t);

/// Inter-cluster communication fabric parameters, swept like any other
/// machine axis (see bench/ablation_interconnect).
struct TopologyConfig {
  Topology kind = Topology::kIdeal;
  std::uint32_t link_latency = 1;           ///< per-hop transit, cycles.
  /// Copies one link accepts per cycle. kIdeal ignores it (infinite); for
  /// the other topologies use ~0u to model an unlimited link.
  std::uint32_t copies_per_link_cycle = 1;
};

/// Links a copy from `from` to `to` traverses on a `kind` fabric with
/// `num_clusters` clusters (0 when from == to). Single source of truth for
/// the hop count: the simulator's Interconnect::distance and the compiler's
/// per-pair communication-cost matrices both derive from it, so the
/// software estimate can never drift from the modeled fabric. The ring is
/// unidirectional, so its distance is directed: d(0,1)=1 but d(1,0)=n-1.
std::uint32_t topology_distance(Topology kind, std::uint32_t num_clusters,
                                std::uint32_t from, std::uint32_t to);

/// Steering-policy knobs that are machine configuration (swept like any
/// other axis, part of the exec cache key) rather than per-scheme options.
struct SteerConfig {
  /// When set, the hardware policies weigh candidate clusters by topology
  /// hop cost plus observed link contention (both in cycles) instead of the
  /// flat occupancy tiebreak, and the software passes plan with the active
  /// topology's per-pair cost matrix instead of the ideal fabric's. Off
  /// reproduces the flat (pre-topology) behaviour bit-identically.
  bool topology_aware = false;
};

/// Cache geometry + timing for one level of the hierarchy.
struct CacheConfig {
  std::uint32_t size_bytes = 0;
  std::uint32_t associativity = 1;
  std::uint32_t line_bytes = 64;
  std::uint32_t hit_latency = 1;

  std::uint32_t num_sets() const {
    return size_bytes / (line_bytes * associativity);
  }

  bool operator==(const CacheConfig&) const = default;
};

/// Full machine description. Defaults reproduce Table 2 with 2 clusters.
struct MachineConfig {
  // --- Front-end (monolithic) ---
  std::uint32_t fetch_width = 6;           ///< micro-ops fetched per cycle.
  std::uint32_t fetch_to_dispatch = 5;     ///< cycles from fetch to dispatch.
  std::uint32_t decode_width_int = 3;      ///< INT micro-ops renamed+steered/cycle.
  std::uint32_t decode_width_fp = 3;       ///< FP micro-ops renamed+steered/cycle.
  std::uint32_t rob_int_entries = 256;
  std::uint32_t rob_fp_entries = 256;
  std::uint32_t commit_width_int = 3;
  std::uint32_t commit_width_fp = 3;

  // --- Back-end (per cluster) ---
  std::uint32_t num_clusters = 2;
  std::uint32_t iq_int_entries = 48;
  std::uint32_t iq_fp_entries = 48;
  std::uint32_t iq_copy_entries = 24;
  std::uint32_t issue_width_int = 2;       ///< INT micro-ops issued/cycle/cluster.
  std::uint32_t issue_width_fp = 2;        ///< FP micro-ops issued/cycle/cluster.
  std::uint32_t issue_width_copy = 1;      ///< copies issued/cycle/cluster.
  std::uint32_t regfile_int = 256;
  std::uint32_t regfile_fp = 256;

  // --- Inter-cluster communication ---
  TopologyConfig interconnect;

  // --- Steering (cross-scheme hardware/software knobs) ---
  SteerConfig steer;

  // --- Memory system ---
  CacheConfig l1d{/*size=*/32 * 1024, /*assoc=*/4, /*line=*/64, /*lat=*/3};
  CacheConfig l2{/*size=*/2 * 1024 * 1024, /*assoc=*/16, /*line=*/64, /*lat=*/13};
  std::uint32_t memory_latency = 500;      ///< ">= 500 cycle miss" in Table 2.
  std::uint32_t lsq_entries = 256;
  std::uint32_t l1_read_ports = 2;
  std::uint32_t l1_write_ports = 1;

  /// Occupancy threshold (fraction of IQ entries) above which the OP policy
  /// prefers stalling over steering away from the operand cluster. Not in
  /// Table 2 — it is the tunable of the occupancy-aware scheme [15].
  double op_occupancy_threshold = 0.75;

  /// Named presets used throughout benches and tests.
  static MachineConfig two_cluster();
  static MachineConfig four_cluster();

  /// Human-readable one-line summary, e.g. "2-cluster, 48/48/24 IQ".
  std::string summary() const;

  /// Validate invariants (non-zero widths and ports, register files larger
  /// than the architectural register count, power-of-two cache sets, ...).
  /// Returns an empty string when valid, else a description of the problem.
  /// A valid machine can still livelock on a trace (sim::max_commit_gap).
  std::string validate() const;
};

}  // namespace vcsteer
