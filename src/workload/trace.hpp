// Dynamic trace generation.
//
// The paper's simulator is trace-driven ("an event-driven simulator that
// executes traces of IA32 binaries"). TraceSource walks the generated
// program's CFG, emitting one dynamic micro-op reference per step together
// with a memory address for loads/stores. The walk is deterministic given
// the workload's seed and models program *phases*: the dynamic behaviour is
// periodically biased towards a different subset of blocks and the memory
// streams shift to a different slice of the working set — which is what the
// PinPoints pass later detects and samples.
//
// Addresses are 32 bits wide: an entry is 8 bytes, half of what a 64-bit
// address would take, and the materialised intervals and warm-address
// streams are the largest allocations of every experiment. TraceSource
// refuses a profile whose working set exceeds the 4 GiB that 32 bits can
// address; the largest built-in working set is 181.mcf's 16 MiB.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "workload/generator.hpp"

namespace vcsteer::workload {

struct TraceEntry {
  prog::UopId uop = prog::kInvalidUop;
  std::uint32_t addr = 0;  ///< valid for loads/stores only.
};
static_assert(sizeof(TraceEntry) == 8, "a trace entry is 8 bytes");

/// Bytes a trace address can reach: a profile's address space,
/// max(4096, working_set_kb * 1024), must not exceed it.
inline constexpr std::uint64_t kTraceAddressSpace = std::uint64_t{1} << 32;

class TraceSource {
 public:
  /// Aborts unless the profile's address space fits kTraceAddressSpace.
  explicit TraceSource(const GeneratedWorkload& workload);

  /// Restart the trace from the beginning (bit-identical replay).
  void reset();

  /// Emit the next dynamic micro-op. The trace is infinite (the generated
  /// CFG is strongly connected); callers bound the length.
  TraceEntry next();

  /// Dynamic micro-ops emitted since reset().
  std::uint64_t position() const { return position_; }

  /// Fast-forward by `n` micro-ops (regenerates and discards — cheap).
  void skip(std::uint64_t n);

  /// Convenience: materialise the next `n` entries.
  std::vector<TraceEntry> take(std::uint64_t n);

  /// Block the cursor currently sits in (for BBV accounting).
  prog::BlockId current_block() const { return block_; }

  /// Current phase index in [0, profile.phase_count).
  std::uint32_t current_phase() const;

 private:
  void advance_block();
  std::uint32_t address_for(std::uint32_t stream_id);

  const GeneratedWorkload& wl_;
  /// max(4096, working_set_kb * 1024): every address lies below it.
  const std::uint64_t address_space_;
  Rng rng_;
  prog::BlockId block_ = 0;
  std::uint32_t offset_ = 0;        ///< next uop index within block_.
  std::uint64_t position_ = 0;
  std::vector<std::uint64_t> stream_counter_;
  std::vector<Rng> stream_rng_;
  std::vector<std::uint32_t> block_phase_;  ///< phase affinity per block.
};

}  // namespace vcsteer::workload
