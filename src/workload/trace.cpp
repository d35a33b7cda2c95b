#include "workload/trace.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace vcsteer::workload {
namespace {

/// Off-phase successor blocks keep this fraction of their static probability
/// before renormalisation — phases visibly reshape the block mix without
/// ever making a block unreachable.
constexpr double kOffPhaseDamping = 0.15;

}  // namespace

TraceSource::TraceSource(const GeneratedWorkload& workload)
    : wl_(workload),
      address_space_(std::max<std::uint64_t>(
          4096, std::uint64_t{workload.profile.working_set_kb} * 1024)),
      rng_(workload.profile.seed(/*stream=*/2)) {
  VCSTEER_CHECK_MSG(address_space_ <= kTraceAddressSpace,
                    "working set exceeds the 4 GiB a 32-bit trace address "
                    "can reach");
  const std::size_t n_blocks = wl_.program.num_blocks();
  const std::uint32_t phases = std::max(1u, wl_.profile.phase_count);
  block_phase_.resize(n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    block_phase_[b] = static_cast<std::uint32_t>(b * phases / n_blocks);
  }
  reset();
}

void TraceSource::reset() {
  rng_.reseed(wl_.profile.seed(/*stream=*/2));
  block_ = wl_.program.entry();
  offset_ = 0;
  position_ = 0;
  stream_counter_.assign(wl_.streams.size(), 0);
  stream_rng_.clear();
  stream_rng_.reserve(wl_.streams.size());
  for (std::size_t s = 0; s < wl_.streams.size(); ++s) {
    stream_rng_.emplace_back(wl_.profile.seed(/*stream=*/100 + s));
  }
}

std::uint32_t TraceSource::current_phase() const {
  const std::uint32_t phases = std::max(1u, wl_.profile.phase_count);
  const std::uint64_t phase_len =
      std::max<std::uint64_t>(1, wl_.profile.phase_length_kuops) * 1024;
  return static_cast<std::uint32_t>((position_ / phase_len) % phases);
}

std::uint32_t TraceSource::address_for(std::uint32_t stream_id) {
  VCSTEER_DCHECK(stream_id < wl_.streams.size());
  const MemStream& s = wl_.streams[stream_id];
  const std::uint64_t total = address_space_;
  // Phase shifts each stream to a different slice of the working set.
  const std::uint64_t base =
      (stream_id * 2654435761ULL +
       current_phase() * (total / std::max(1u, wl_.profile.phase_count))) %
      total;
  std::uint64_t offset = 0;
  switch (s.kind) {
    case MemStream::Kind::kStrided:
      offset = (stream_counter_[stream_id]++ * s.stride_bytes) % s.region_bytes;
      break;
    case MemStream::Kind::kRandom:
    case MemStream::Kind::kPointer:
      offset = stream_rng_[stream_id].below(s.region_bytes) & ~7ULL;
      break;
  }
  // Below total, which the constructor bounds by 2^32: the cast is exact.
  return static_cast<std::uint32_t>(((base + offset) % total) & ~7ULL);
}

void TraceSource::advance_block() {
  const prog::BasicBlock& bb = wl_.program.block(block_);
  VCSTEER_CHECK_MSG(!bb.succs.empty(),
                    "generated CFG must be strongly connected");
  const std::uint32_t phase = current_phase();
  // Reweight successors towards blocks affine to the current phase.
  double total = 0.0;
  double weights[8];
  const std::size_t n = std::min<std::size_t>(bb.succs.size(), 8);
  for (std::size_t i = 0; i < n; ++i) {
    const double damp =
        block_phase_[bb.succs[i].target] == phase ? 1.0 : kOffPhaseDamping;
    weights[i] = bb.succs[i].probability * damp;
    total += weights[i];
  }
  double pick = rng_.uniform() * total;
  std::size_t chosen = n - 1;
  for (std::size_t i = 0; i < n; ++i) {
    pick -= weights[i];
    if (pick <= 0) {
      chosen = i;
      break;
    }
  }
  block_ = bb.succs[chosen].target;
  offset_ = 0;
}

TraceEntry TraceSource::next() {
  const prog::BasicBlock* bb = &wl_.program.block(block_);
  if (offset_ >= bb->num_uops) {
    advance_block();
    bb = &wl_.program.block(block_);
  }
  const prog::UopId id = bb->uop_at(offset_++);
  ++position_;
  TraceEntry entry{id, 0};
  const std::uint32_t stream = wl_.stream_of_uop[id];
  if (stream != kNoStream) entry.addr = address_for(stream);
  return entry;
}

void TraceSource::skip(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) next();
}

std::vector<TraceEntry> TraceSource::take(std::uint64_t n) {
  std::vector<TraceEntry> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(next());
  return out;
}

}  // namespace vcsteer::workload
