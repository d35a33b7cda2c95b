// SPEC CPU2000 stand-in workload profiles.
//
// The paper evaluates on PinPoints-selected traces of SPEC CPU2000 binaries
// compiled with Intel's production compiler. We cannot redistribute SPEC or
// the compiler, so each trace in the paper's Figures 5-7 is substituted by a
// *named parameter point* of a synthetic program generator. The parameters
// control exactly the program properties that differentiate steering
// schemes: instruction-level parallelism (number of independent dependence
// chains), chain depth (how serial the computation is), FP/INT mix,
// memory intensity and locality (cache behaviour), block size (compiler
// visibility), and phase structure (how much runtime behaviour diverges
// from the compiler's static view). Profiles are seeded by name, so every
// run of every bench sees identical programs and traces.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace vcsteer::workload {

struct WorkloadProfile {
  std::string name;       ///< paper trace name, e.g. "164.gzip-1".
  bool is_fp = false;     ///< SPECfp vs SPECint suite membership.

  // --- static program shape ---
  std::uint32_t num_blocks = 24;       ///< distinct basic blocks (superblock-sized).
  std::uint32_t min_block_uops = 16;   ///< uops per block, lower bound.
  std::uint32_t max_block_uops = 64;   ///< uops per block, upper bound.
  double ilp_chains = 3.0;             ///< mean independent chains per block.
  double chain_bias = 0.75;            ///< P(source = same-chain last result).
  double cross_block_reuse = 0.25;     ///< P(source = value live across blocks).
  /// Loop-carried read-modify-write updates of global registers per block
  /// (accumulators, induction variables). These serialise consecutive block
  /// executions and create the cross-region dependences that compile-time
  /// steering cannot see.
  std::uint32_t loop_carried_deps = 2;

  // --- instruction mix (fractions of non-branch uops) ---
  double fp_fraction = 0.0;            ///< FP share of compute uops.
  double load_fraction = 0.22;
  double store_fraction = 0.10;
  double mul_fraction = 0.06;          ///< multiplies among compute uops.
  double div_fraction = 0.01;          ///< divides among compute uops.

  // --- memory behaviour ---
  std::uint32_t working_set_kb = 64;   ///< footprint of the address streams.
  double stride_fraction = 0.7;        ///< strided vs uniform-random accesses.
  double pointer_chase = 0.0;          ///< share of loads on an address chain.

  // --- control & phase behaviour ---
  double loop_backedge_prob = 0.85;    ///< loopiness of the CFG.
  std::uint32_t phase_count = 3;       ///< distinct dynamic phases.
  std::uint32_t phase_length_kuops = 40;  ///< phase length in kilo-uops.

  std::uint64_t seed_salt = 0;         ///< extra salt mixed into the seed.

  std::uint64_t seed(std::uint64_t stream = 0) const;

  bool operator==(const WorkloadProfile&) const = default;
};

/// All 40 trace profiles of the paper's Figure 5 (26 SPECint + 14 SPECfp).
std::span<const WorkloadProfile> all_profiles();
std::span<const WorkloadProfile> int_profiles();
std::span<const WorkloadProfile> fp_profiles();

/// Lookup by name; returns nullptr when unknown.
const WorkloadProfile* find_profile(std::string_view name);

/// A reduced deterministic subset spanning the behaviour space (one memory-
/// bound, one ILP-rich, one serial, one FP-heavy trace, ...) used by tests
/// and fast example runs.
std::span<const WorkloadProfile> smoke_profiles();

}  // namespace vcsteer::workload
