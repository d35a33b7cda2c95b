// Compile-time-dispatched observer layer over the simulator core.
//
// ClusteredCoreT and its five stage components take an observer type as a
// template parameter and drive per-event hooks at every architectural event:
// cycle begin/end, fetch, steer decision (with the per-cluster scores the
// policy computed), dispatch stall (with reason), issue, wakeup (value
// publish, including copy arrivals), copy request/inject, and commit. Every
// call site is guarded by `if constexpr (Obs::enabled)`, so an observer with
// `enabled == false` (NullObserver) compiles to exactly the un-instrumented
// simulator — no branch, no call, no state. Observers with `enabled == true`
// pay only for the hooks they implement; ObserverBase supplies empty
// defaults for the rest.
//
// Contract: hooks may read CoreState freely and may mutate only
// CoreState::stats (the stats-recorder sink folds its occupancy
// accumulation there). Anything else would perturb the simulation and break
// the observers-never-change-the-bits guarantee that
// tests/sim_test.cpp asserts across NullObserver / StatsObserver /
// CountingObserver runs.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "program/program.hpp"
#include "sim/core_state.hpp"

namespace vcsteer::sim {

/// Why the steer stage stopped dispatching this cycle. Mirrors the SimStats
/// stall counters one-to-one (the counting observer reconciles against
/// them).
enum class StallReason : std::uint8_t {
  kFrontendEmpty = 0,  ///< no micro-op ready to dispatch.
  kRob,                ///< ROB slot of the needed kind full.
  kLsq,                ///< unified load/store queue full.
  kPolicy,             ///< policy chose to stall (stall-over-steer).
  kAllocFull,          ///< target issue queue full (balance metric).
  kRegfile,            ///< destination/copy registers exhausted.
  kCopyQueue,          ///< producer cluster's copy queue full.
  kCopyBandwidth,      ///< no decode slot left for the generated copies.
};
inline constexpr std::uint32_t kNumStallReasons = 8;

const char* stall_reason_name(StallReason reason);

struct FetchEvent {
  prog::UopId uop;
  std::uint64_t cycle;
};

struct SteerEvent {
  prog::UopId uop;
  std::uint64_t seq;
  std::uint32_t cluster;      ///< destination the dispatch committed to.
  std::uint8_t num_copies;    ///< inter-cluster copies this steer generated.
  std::uint64_t cycle;
  /// Per-cluster scores the policy computed for this decision (empty when
  /// the policy does not expose them — see SteeringPolicy::last_scores()).
  /// OP-family: votes (higher = better) on flat fabrics, estimated
  /// communication cost (lower = better) with topology-aware steering.
  std::span<const double> scores;
};

struct StallEvent {
  StallReason reason;
  std::uint64_t cycle;
};

struct IssueEvent {
  prog::UopId uop;
  std::uint64_t seq;
  std::uint32_t cluster;
  bool fp_queue;
  std::uint64_t cycle;
  std::uint64_t complete_cycle;  ///< when the result publishes at home.
};

/// A value became available in a cluster (producer completion or copy
/// arrival) and its waiters were woken.
struct WakeupEvent {
  Tag tag;
  std::uint32_t cluster;
  std::uint64_t cycle;
  bool is_copy_arrival;
};

struct CopyRequestEvent {
  Tag tag;
  std::uint32_t from;  ///< producer (home) cluster holding the value.
  std::uint32_t to;
  std::uint64_t seq;   ///< age of the dispatching consumer.
  std::uint64_t cycle;
};

struct CopyInjectEvent {
  Tag tag;
  std::uint32_t from;
  std::uint32_t to;
  std::uint32_t hops;  ///< topology links the copy traverses.
  std::uint64_t cycle;
  std::uint64_t arrive_cycle;  ///< regfile write in the target cluster.
};

struct CommitEvent {
  prog::UopId uop;
  std::uint64_t seq;
  std::uint32_t cluster;
  std::uint64_t cycle;
};

/// An observer only needs the `enabled` flag: when it is false no hook is
/// ever instantiated, when true the hooks the core drives must exist
/// (inherit ObserverBase for empty defaults).
template <typename T>
concept Observer = requires {
  { T::enabled } -> std::convertible_to<bool>;
};

/// The zero-overhead default: every hook site vanishes under
/// `if constexpr`. Deliberately defines no hooks at all, so accidentally
/// instantiating one is a compile error instead of silent overhead.
struct NullObserver {
  static constexpr bool enabled = false;
  static constexpr bool cycle_skip_safe = true;
};

/// Empty implementations of every hook; enabled sinks derive from this and
/// shadow the events they care about.
///
/// cycle_skip_safe opts an observer into the core's idle-cycle fast-forward
/// (ClusteredCoreT::skip_idle_cycles): provably event-free cycles are
/// jumped in one step and reported through on_cycles_skipped instead of
/// firing per-cycle hooks. SimStats are bit-identical either way; only an
/// observer's *own* per-cycle recordings could differ, so the base defaults
/// to false and per-cycle recorders (CountingObserver, TimelineObserver)
/// keep the full cycle-by-cycle view. An observer declaring true must make
/// on_cycles_skipped reproduce whatever its per-cycle hooks would have
/// accumulated over the span (see StatsObserver).
struct ObserverBase {
  static constexpr bool enabled = true;
  static constexpr bool cycle_skip_safe = false;
  void on_run_begin(const CoreState&) {}
  void on_cycle_begin(std::uint64_t /*cycle*/) {}
  void on_fetch(const FetchEvent&) {}
  void on_steer(const SteerEvent&) {}
  void on_stall(const StallEvent&) {}
  void on_issue(const IssueEvent&) {}
  void on_wakeup(const WakeupEvent&) {}
  void on_copy_request(const CopyRequestEvent&) {}
  void on_copy_inject(const CopyInjectEvent&) {}
  void on_commit(const CommitEvent&) {}
  void on_cycle_end(CoreState&) {}
  /// `count` idle cycles ending just before CoreState::cycle were jumped;
  /// cluster state was constant across them.
  void on_cycles_skipped(CoreState&, std::uint64_t /*count*/) {}
};

// ------------------------------------------------------------------ sinks --

/// Per-cycle occupancy recorder + steer-decision provenance — the harness
/// default (the `ClusteredCore` alias in sim/core.hpp). Owns the
/// SimStats::occupancy_sum / copyq_occupancy_sum accumulation that used to
/// be hand-threaded through the core's run loop (bit-identical: same
/// counters, summed at the same point of the cycle), and adds per-cluster
/// occupancy histograms and steered-with-copy/local counts that
/// harness::RunResult surfaces into the results JSON.
class StatsObserver : public ObserverBase {
 public:
  static constexpr bool cycle_skip_safe = true;

  void on_run_begin(const CoreState& state) {
    num_clusters_ = state.config.num_clusters;
    const std::uint32_t iq_capacity =
        state.config.iq_int_entries + state.config.iq_fp_entries;
    // Occupancy -> histogram bucket, precomputed: on_cycle_end runs for
    // every stepped cycle and a divide per cluster is measurable there.
    bucket_of_.assign(iq_capacity + 1, 0);
    for (std::uint32_t occ = 0; occ <= iq_capacity; ++occ) {
      bucket_of_[occ] = static_cast<std::uint8_t>(std::min(
          kOccupancyBuckets - 1, occ * kOccupancyBuckets / iq_capacity));
    }
    for (auto& h : hist_) h.fill(0);
    steered_with_copy_.fill(0);
    steered_local_.fill(0);
  }

  void on_cycle_end(CoreState& state) {
    for (std::uint32_t c = 0; c < num_clusters_; ++c) {
      const ClusterState& cl = state.clusters[c];
      const std::uint32_t occ = cl.int_used + cl.fp_used;
      state.stats.occupancy_sum[c] += occ;
      state.stats.copyq_occupancy_sum[c] += cl.copy_used;
      ++hist_[c][bucket_of_[occ]];
    }
  }

  void on_steer(const SteerEvent& e) {
    ++(e.num_copies != 0 ? steered_with_copy_ : steered_local_)[e.cluster];
  }

  /// Bulk form of on_cycle_end over a jumped idle span: occupancies were
  /// constant, so the span contributes count x the per-cycle amounts —
  /// bit-identical to having stepped every cycle.
  void on_cycles_skipped(CoreState& state, std::uint64_t count) {
    for (std::uint32_t c = 0; c < num_clusters_; ++c) {
      const ClusterState& cl = state.clusters[c];
      const std::uint32_t occ = cl.int_used + cl.fp_used;
      state.stats.occupancy_sum[c] += static_cast<std::uint64_t>(occ) * count;
      state.stats.copyq_occupancy_sum[c] +=
          static_cast<std::uint64_t>(cl.copy_used) * count;
      hist_[c][bucket_of_[occ]] += count;
    }
  }

  /// hist(c)[b]: cycles cluster `c` spent with compute-IQ occupancy in
  /// bucket b of kOccupancyBuckets equal slices of the combined INT+FP
  /// capacity (the last bucket includes exactly-full).
  const std::array<std::uint64_t, kOccupancyBuckets>& hist(
      std::uint32_t cluster) const {
    return hist_[cluster];
  }
  std::uint64_t steered_with_copy(std::uint32_t cluster) const {
    return steered_with_copy_[cluster];
  }
  std::uint64_t steered_local(std::uint32_t cluster) const {
    return steered_local_[cluster];
  }

 private:
  std::uint32_t num_clusters_ = 0;
  std::vector<std::uint8_t> bucket_of_;
  std::array<std::array<std::uint64_t, kOccupancyBuckets>, kMaxClusters>
      hist_{};
  std::array<std::uint64_t, kMaxClusters> steered_with_copy_{};
  std::array<std::uint64_t, kMaxClusters> steered_local_{};
};

/// Counts every event kind — the reconciliation sink: each counter must
/// equal the corresponding SimStats counter at the end of a run (steers ==
/// dispatched_uops, commits == committed_uops, copy_injects ==
/// copies_routed, ...). Used by tests and embedded in TimelineObserver.
class CountingObserver : public ObserverBase {
 public:
  void on_run_begin(const CoreState&) { *this = CountingObserver(); }
  void on_cycle_begin(std::uint64_t) { ++cycles; }
  void on_fetch(const FetchEvent&) { ++fetches; }
  void on_steer(const SteerEvent&) { ++steers; }
  void on_stall(const StallEvent& e) {
    ++stalls;
    ++stalls_by_reason[static_cast<std::uint32_t>(e.reason)];
  }
  void on_issue(const IssueEvent&) { ++issues; }
  void on_wakeup(const WakeupEvent& e) {
    ++(e.is_copy_arrival ? copy_arrival_wakeups : producer_wakeups);
  }
  void on_copy_request(const CopyRequestEvent&) { ++copy_requests; }
  void on_copy_inject(const CopyInjectEvent&) { ++copy_injects; }
  void on_commit(const CommitEvent&) { ++commits; }

  std::uint64_t cycles = 0;
  std::uint64_t fetches = 0;
  std::uint64_t steers = 0;
  std::uint64_t stalls = 0;
  std::array<std::uint64_t, kNumStallReasons> stalls_by_reason{};
  std::uint64_t issues = 0;
  std::uint64_t producer_wakeups = 0;
  std::uint64_t copy_arrival_wakeups = 0;
  std::uint64_t copy_requests = 0;
  std::uint64_t copy_injects = 0;
  std::uint64_t commits = 0;
};

/// Ring-buffered per-cycle event recorder behind examples/pipeline_viewer:
/// keeps every event inside the cycle window (all of them by default, the
/// newest `capacity` once the ring wraps) plus a per-cycle occupancy
/// snapshot, and counts every event unconditionally (window or not) so the
/// viewer can reconcile against SimStats even when it only displays a
/// slice.
class TimelineObserver : public ObserverBase {
 public:
  enum class Kind : std::uint8_t {
    kFetch,
    kSteer,
    kStall,
    kIssue,
    kWakeup,
    kCopyRequest,
    kCopyInject,
    kCommit,
  };

  struct Event {
    Kind kind;
    std::uint8_t cluster = 0;   ///< destination / issuing / commit cluster.
    std::uint8_t from = 0;      ///< copy producer cluster.
    std::uint8_t flags = 0;     ///< kFp / kCopyArrival below.
    StallReason reason = StallReason::kFrontendEmpty;
    std::uint8_t num_scores = 0;
    prog::UopId uop = prog::kInvalidUop;
    Tag tag = kNoTag;
    std::uint64_t seq = 0;
    std::uint64_t cycle = 0;
    std::uint64_t aux = 0;  ///< complete/arrive cycle; hops for injects.
    std::array<float, kMaxClusters> scores{};
  };
  static constexpr std::uint8_t kFp = 1;
  static constexpr std::uint8_t kCopyArrival = 2;

  struct CycleSample {
    std::uint64_t cycle = 0;
    std::array<std::uint32_t, kMaxClusters> iq_occupancy{};
    std::array<std::uint32_t, kMaxClusters> copyq_occupancy{};
  };

  /// Record only cycles in [start, start + length); length 0 = everything.
  void set_window(std::uint64_t start, std::uint64_t length) {
    window_start_ = start;
    window_length_ = length;
  }
  void set_capacity(std::size_t events) { capacity_ = events; }

  void on_run_begin(const CoreState& state) {
    counts_.on_run_begin(state);
    num_clusters_ = state.config.num_clusters;
    events_.clear();
    ring_next_ = 0;
    dropped_ = 0;
    samples_.clear();
  }
  void on_cycle_begin(std::uint64_t cycle) { counts_.on_cycle_begin(cycle); }
  void on_fetch(const FetchEvent& e) {
    counts_.on_fetch(e);
    if (!in_window(e.cycle)) return;
    Event ev{};
    ev.kind = Kind::kFetch;
    ev.uop = e.uop;
    ev.cycle = e.cycle;
    record(ev);
  }
  void on_steer(const SteerEvent& e) {
    counts_.on_steer(e);
    if (!in_window(e.cycle)) return;
    Event ev{};
    ev.kind = Kind::kSteer;
    ev.cluster = static_cast<std::uint8_t>(e.cluster);
    ev.uop = e.uop;
    ev.seq = e.seq;
    ev.cycle = e.cycle;
    ev.aux = e.num_copies;
    ev.num_scores = static_cast<std::uint8_t>(
        std::min<std::size_t>(e.scores.size(), kMaxClusters));
    for (std::uint8_t s = 0; s < ev.num_scores; ++s) {
      ev.scores[s] = static_cast<float>(e.scores[s]);
    }
    record(ev);
  }
  void on_stall(const StallEvent& e) {
    counts_.on_stall(e);
    if (!in_window(e.cycle)) return;
    Event ev{};
    ev.kind = Kind::kStall;
    ev.reason = e.reason;
    ev.cycle = e.cycle;
    record(ev);
  }
  void on_issue(const IssueEvent& e) {
    counts_.on_issue(e);
    if (!in_window(e.cycle)) return;
    Event ev{};
    ev.kind = Kind::kIssue;
    ev.cluster = static_cast<std::uint8_t>(e.cluster);
    if (e.fp_queue) ev.flags |= kFp;
    ev.uop = e.uop;
    ev.seq = e.seq;
    ev.cycle = e.cycle;
    ev.aux = e.complete_cycle;
    record(ev);
  }
  void on_wakeup(const WakeupEvent& e) {
    counts_.on_wakeup(e);
    if (!in_window(e.cycle)) return;
    Event ev{};
    ev.kind = Kind::kWakeup;
    ev.cluster = static_cast<std::uint8_t>(e.cluster);
    if (e.is_copy_arrival) ev.flags |= kCopyArrival;
    ev.tag = e.tag;
    ev.cycle = e.cycle;
    record(ev);
  }
  void on_copy_request(const CopyRequestEvent& e) {
    counts_.on_copy_request(e);
    if (!in_window(e.cycle)) return;
    Event ev{};
    ev.kind = Kind::kCopyRequest;
    ev.from = static_cast<std::uint8_t>(e.from);
    ev.cluster = static_cast<std::uint8_t>(e.to);
    ev.tag = e.tag;
    ev.seq = e.seq;
    ev.cycle = e.cycle;
    record(ev);
  }
  void on_copy_inject(const CopyInjectEvent& e) {
    counts_.on_copy_inject(e);
    if (!in_window(e.cycle)) return;
    Event ev{};
    ev.kind = Kind::kCopyInject;
    ev.from = static_cast<std::uint8_t>(e.from);
    ev.cluster = static_cast<std::uint8_t>(e.to);
    ev.tag = e.tag;
    ev.cycle = e.cycle;
    ev.aux = e.arrive_cycle;
    ev.seq = e.hops;
    record(ev);
  }
  void on_commit(const CommitEvent& e) {
    counts_.on_commit(e);
    if (!in_window(e.cycle)) return;
    Event ev{};
    ev.kind = Kind::kCommit;
    ev.cluster = static_cast<std::uint8_t>(e.cluster);
    ev.uop = e.uop;
    ev.seq = e.seq;
    ev.cycle = e.cycle;
    record(ev);
  }
  void on_cycle_end(CoreState& state) {
    if (!in_window(state.cycle)) return;
    CycleSample s;
    s.cycle = state.cycle;
    for (std::uint32_t c = 0; c < num_clusters_; ++c) {
      s.iq_occupancy[c] =
          state.clusters[c].int_used + state.clusters[c].fp_used;
      s.copyq_occupancy[c] = state.clusters[c].copy_used;
    }
    samples_.push_back(s);
  }

  const CountingObserver& counts() const { return counts_; }
  /// Recorded in-window events in arrival order (oldest first, even after
  /// the ring wrapped).
  std::vector<Event> events() const {
    if (events_.size() < capacity_ || ring_next_ == 0) return events_;
    std::vector<Event> ordered(events_.begin() + ring_next_, events_.end());
    ordered.insert(ordered.end(), events_.begin(),
                   events_.begin() + ring_next_);
    return ordered;
  }
  const std::vector<CycleSample>& cycle_samples() const { return samples_; }
  /// In-window events overwritten because the ring filled up.
  std::uint64_t dropped() const { return dropped_; }

 private:
  bool in_window(std::uint64_t cycle) const {
    return window_length_ == 0 ||
           (cycle >= window_start_ && cycle - window_start_ < window_length_);
  }
  void record(const Event& e) {
    if (events_.size() < capacity_) {
      events_.push_back(e);
      return;
    }
    events_[ring_next_] = e;
    ring_next_ = (ring_next_ + 1) % capacity_;
    ++dropped_;
  }

  CountingObserver counts_;
  std::uint64_t window_start_ = 0;
  std::uint64_t window_length_ = 0;
  std::size_t capacity_ = 1 << 16;
  std::uint32_t num_clusters_ = 0;
  std::vector<Event> events_;
  std::size_t ring_next_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<CycleSample> samples_;
};

inline const char* stall_reason_name(StallReason reason) {
  switch (reason) {
    case StallReason::kFrontendEmpty: return "frontend_empty";
    case StallReason::kRob: return "rob";
    case StallReason::kLsq: return "lsq";
    case StallReason::kPolicy: return "policy";
    case StallReason::kAllocFull: return "alloc";
    case StallReason::kRegfile: return "regfile";
    case StallReason::kCopyQueue: return "copyq";
    case StallReason::kCopyBandwidth: return "copy_bandwidth";
  }
  return "?";
}

}  // namespace vcsteer::sim
