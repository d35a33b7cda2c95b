#include "model/critpath.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <functional>
#include <vector>

#include "common/check.hpp"
#include "isa/uop.hpp"
#include "mem/hierarchy.hpp"

namespace vcsteer::model {
namespace {

// Steering balance window: how many of the most recent assignments the
// model's load proxy looks at. The real policies read live IQ occupancy; the
// model substitutes the cluster-assignment mix of the last kBalanceWindow
// micro-ops, which tracks the same imbalance signal without reading queue
// sizes — reading them would make steering, and through it the predicted
// cycles, non-monotone in the resources the model must be monotone in.
constexpr std::uint32_t kBalanceWindow = 64;

// OP steering's in-flight test, resource-independently: OpPolicy weighs a
// source double when its value is still in flight (consuming it remotely
// puts the copy on the critical path). The model cannot read completion
// times during steering, so "in flight" becomes "produced within the last
// kInFlightWindow micro-ops" — program-order recency, which tracks the same
// signal without touching any machine resource.
constexpr std::uint64_t kInFlightWindow = 64;

/// Stream of event times for an IN-ORDER pipeline stage (decode, commit,
/// ROB release) with one k-back constraint, `back` entries behind the next
/// push: entries free in stream order, so the constraint is a prefix-maximum
/// lookup. Non-decreasing in the stream index, so a larger `back` (a wider
/// resource) can only yield an earlier, never-larger time.
///
/// Only the last `back` prefix maxima can still be read, so they live in a
/// power-of-two ring of at least `back` entries (a 100-entry ROB keeps 128).
class Stream {
 public:
  void configure(std::uint64_t back) {
    // 0 and ~0u both mark an unlimited resource (~0u never binds because
    // streams stay far below 2^32 entries); back_ == 0 stands for both.
    back_ = back >= 0xffffffffull ? 0 : back;
    if (back_ != 0) ring_.assign(std::bit_ceil(back_), 0);
  }

  void push(std::uint64_t t) {
    max_ = std::max(max_, t);
    if (back_ == 0) return;
    ring_[n_ & (ring_.size() - 1)] = max_;
    ++n_;
  }

  /// Prefix-max time of the entry `back` positions before the next push.
  /// 0 — no constraint — while the stream is shorter than `back` or the
  /// resource is unlimited.
  std::uint64_t window_bound() const { return binds() ? at_back() : 0; }

  /// Rate constraint: at most `back` stream events per cycle, so the next
  /// event lands strictly after the one `back` back.
  std::uint64_t rate_bound() const { return binds() ? at_back() + 1 : 0; }

 private:
  bool binds() const { return back_ != 0 && n_ >= back_; }
  std::uint64_t at_back() const {
    return ring_[(n_ - back_) & (ring_.size() - 1)];
  }

  std::uint64_t back_ = 0;
  std::uint64_t n_ = 0;  ///< entries pushed; entry j is ring_[j & mask].
  std::uint64_t max_ = 0;
  std::vector<std::uint64_t> ring_;
};

/// Order-statistic pool for *window* resources whose slots free OUT of
/// order — issue-queue entries (they leave when they issue, not in dispatch
/// order) and the LSQ (loads leave at completion, stores at commit). With
/// capacity C and n recorded free times, the next acquirer waits for the
/// (n-C+1)-th *smallest* free time: the moment enough slots have actually
/// freed, regardless of acquisition order — exact, with no assumption about
/// the order slots were taken in. A prefix-max stream here would model an
/// in-order pipeline: one slow occupant (a dependent of a 500-cycle miss)
/// would serialise everything behind it, which is exactly what an
/// out-of-order core exists to avoid.
///
/// Monotone in C by construction: a larger capacity selects a smaller order
/// statistic, which is never later. The (n-C+1)-th smallest of n times is
/// the C-th largest, so the pool keeps only a min-heap of the C largest
/// times seen and answers with its root: O(C) memory, O(log C) per push,
/// and a time that evicts the root replaces it with one sift-down. The heap
/// grows as times arrive, never to a reserved C — configurations with
/// 2^20-entry queues walk intervals far shorter than that.
class FreePool {
 public:
  void configure(std::uint64_t capacity) {
    // 0 and ~0u both mark an unlimited resource (0 keeps the Stream
    // convention of "no constraint": no real machine has a zero-entry
    // queue); cap_ == 0 stands for both from here on.
    cap_ = capacity >= 0xffffffffull ? 0 : capacity;
  }

  /// Earliest time a slot is free for the next acquirer (0: a slot is
  /// already free, or the resource is unlimited).
  std::uint64_t window_bound() const {
    return cap_ != 0 && largest_.size() == cap_ ? largest_[0] : 0;
  }

  void push(std::uint64_t t) {
    if (cap_ == 0) return;
    if (largest_.size() < cap_) {
      largest_.push_back(t);
      std::push_heap(largest_.begin(), largest_.end(), std::greater<>{});
    } else if (t > largest_[0]) {
      replace_root(t);
    }
  }

 private:
  /// Drops the root for `t`, which is larger: the hole left at the root
  /// moves down to its smaller child for as long as that child is below t.
  void replace_root(std::uint64_t t) {
    const std::size_t n = largest_.size();
    std::size_t hole = 0;
    for (std::size_t child; (child = 2 * hole + 1) < n; hole = child) {
      if (child + 1 < n) child += largest_[child + 1] < largest_[child];
      if (largest_[child] >= t) break;
      largest_[hole] = largest_[child];
    }
    largest_[hole] = t;
  }

  std::uint64_t cap_ = 0;
  std::vector<std::uint64_t> largest_;  ///< min-heap of the C largest free
                                        ///< times; root = C-th largest.
};

/// Per-cycle capacity for *rate* resources — issue ports, copy-queue issue
/// slots, link bandwidth: at most `width` events in any single cycle, with
/// requests arriving in arbitrary time order (a dependent of a slow load
/// asks for a slot hundreds of cycles after younger, independent ops took
/// theirs). place(ready, floor) returns the earliest cycle >= ready with a
/// free slot and books it — the same greedy oldest-first select the
/// simulator's back-end performs. Full cycles forward to a later cycle
/// through path-compressed next-free links, so placement stays near O(1)
/// even when thousands of ready times pile onto the same region.
///
/// `floor` is a cycle no present or future request can precede (callers pass
/// the current dispatch cycle + 1: dispatch never moves backwards and every
/// booking is for issue or later). Only cycles from the floor upward are
/// live, so the per-cycle state is a power-of-two ring indexed by cycle.
/// Each slot records the absolute cycle it holds; a slot tagged with any
/// other cycle of its residue is left over from an earlier lap and reads as
/// empty, so a rising floor costs nothing and no slot is ever cleared. A
/// placement or link that lands at or past the ring's end doubles the ring,
/// moving only the slots whose tag is still live. The ring spans the
/// deepest backlog ahead of dispatch, not the whole walk.
class RatePool {
 public:
  void configure(std::uint64_t width) {
    // Same unlimited convention as FreePool: width_ == 0 for 0 and ~0u.
    width_ = width >= 0xffffffffull ? 0 : width;
  }

  std::uint64_t place(std::uint64_t ready, std::uint64_t floor) {
    if (width_ == 0) return ready;
    base_ = std::max(base_, floor);
    // The ring holds no cycle below the highest floor seen so far.
    VCSTEER_CHECK(ready >= base_);
    cover(ready);
    const std::uint64_t t = find(ready);
    Slot& s = slot(t);
    if (s.cycle != t) s = Slot{t, 0, 0};
    if (++s.count >= width_) {
      cover(t + 1);
      slot(t).skip = 1;
    }
    return t;
  }

 private:
  // A link is an offset from the slot's own cycle, which keeps a slot at 16
  // bytes: the offset fits 32 bits because a link never reaches past the
  // ring's end and no ring reaches 2^32 slots.
  struct Slot {
    std::uint64_t cycle = ~0ull;  ///< the cycle held; ~0: none yet.
    std::uint32_t skip = 0;   ///< full: try cycle + skip instead; 0: not full.
    std::uint32_t count = 0;  ///< events booked in this cycle (< 2^32 - 1).
  };

  Slot& slot(std::uint64_t cycle) { return ring_[cycle & (ring_.size() - 1)]; }

  /// The cycle to try after full `cycle`; 0 when `cycle` has a free slot,
  /// which is also what a slot holding another cycle of the residue says.
  std::uint64_t next_of(std::uint64_t cycle) {
    const Slot& s = slot(cycle);
    return s.cycle == cycle && s.skip != 0 ? cycle + s.skip : 0;
  }

  /// Grows the ring (doubling) until it holds `cycle`, moving every slot
  /// whose tag is live to its position under the larger mask; links are
  /// relative to their slot's cycle and need no rewriting.
  void cover(std::uint64_t cycle) {
    if (cycle - base_ < ring_.size()) return;
    std::size_t size = ring_.empty() ? kMinRing : ring_.size();
    while (cycle - base_ >= size) size *= 2;
    std::vector<Slot> grown(size);
    for (const Slot& s : ring_) {
      if (s.cycle - base_ < ring_.size()) grown[s.cycle & (size - 1)] = s;
    }
    ring_.swap(grown);
  }

  /// Earliest cycle >= t that may still have a free slot, with path
  /// compression (iterative: chase, then repoint the chain at the root).
  std::uint64_t find(std::uint64_t t) {
    std::uint64_t root = t;
    for (std::uint64_t n; (n = next_of(root)) != 0;) root = n;
    while (t != root) {
      Slot& s = slot(t);
      const std::uint64_t next = t + s.skip;
      s.skip = static_cast<std::uint32_t>(root - t);
      t = next;
    }
    return root;
  }

  static constexpr std::size_t kMinRing = 64;

  std::uint64_t width_ = 0;
  std::uint64_t base_ = 0;  ///< lowest live cycle (the highest floor seen).
  std::vector<Slot> ring_;  ///< slot(c) for c in [base_, base_ + size).
};

/// Where a register value lives: the producing uop's completion time at its
/// home cluster, plus the arrival time at every cluster it has been copied
/// to (a copy is charged once, then reused by later consumers — mirroring
/// the simulator's value table).
struct RegState {
  bool has_writer = false;  ///< false: live-in, ready at 0 everywhere.
  std::uint32_t home = 0;
  std::uint32_t mask = ~0u;  ///< clusters holding the value.
  std::uint64_t write_index = 0;  ///< program-order position of the writer.
  std::array<std::uint64_t, kMaxClusters> avail{};
};

class Walker {
 public:
  Walker(const prog::Program& program, const MachineConfig& machine,
         steer::Scheme scheme)
      : program_(program), machine_(machine), scheme_(walked_scheme(scheme)) {
    VCSTEER_CHECK_MSG(machine.num_clusters >= 1,
                      "model needs num_clusters >= 1");
    // The per-cluster state lives in arrays of kMaxClusters.
    VCSTEER_CHECK_MSG(machine.num_clusters <= kMaxClusters,
                      "model supports at most kMaxClusters clusters");
    VCSTEER_CHECK_MSG(machine.fetch_width >= 1, "model needs fetch_width >= 1");
    // Link pools only where they can bind (see operand_ready); a 0-wide
    // copy port is unlimited, as in RatePool.
    const std::uint32_t copy_port =
        machine.issue_width_copy == 0 ? ~0u : machine.issue_width_copy;
    limited_bw_ = machine.interconnect.kind != Topology::kIdeal &&
                  machine.interconnect.copies_per_link_cycle < copy_port;
    const std::uint32_t n = machine.num_clusters;
    decode_[0].configure(machine.decode_width_int);
    decode_[1].configure(machine.decode_width_fp);
    rob_[0].configure(machine.rob_int_entries);
    rob_[1].configure(machine.rob_fp_entries);
    commit_[0].configure(machine.commit_width_int);
    commit_[1].configure(machine.commit_width_fp);
    lsq_.configure(machine.lsq_entries);
    for (std::uint32_t c = 0; c < n; ++c) {
      iq_window_[c][0].configure(machine.iq_int_entries);
      iq_window_[c][1].configure(machine.iq_fp_entries);
      iq_rate_[c][0].configure(machine.issue_width_int);
      iq_rate_[c][1].configure(machine.issue_width_fp);
      copy_rate_[c].configure(machine.issue_width_copy);
      copy_window_[c].configure(machine.iq_copy_entries);
      if (limited_bw_) {
        for (std::uint32_t d = 0; d < n; ++d) {
          link_[c][d].configure(machine.interconnect.copies_per_link_cycle);
        }
      }
    }
    vc_table_.fill(-1);
  }

  IntervalEstimate walk(std::span<const workload::TraceEntry> interval,
                        std::span<const std::uint32_t> load_extra) {
    IntervalEstimate est;
    std::uint64_t last_disp = 0;
    std::uint64_t last_commit = 0;
    for (std::size_t i = 0; i < interval.size(); ++i) {
      const isa::MicroOp& uop = program_.uop(interval[i].uop);
      const std::uint32_t q = isa::uses_fp_queue(uop.op) ? 1 : 0;
      const std::uint32_t c = steer(uop, i);

      // --- dispatch: in-order, behind fetch and every window resource ---
      std::uint64_t disp = i / machine_.fetch_width + machine_.fetch_to_dispatch;
      disp = std::max(disp, last_disp);
      disp = std::max(disp, decode_[q].rate_bound());
      disp = std::max(disp, rob_[q].window_bound());
      if (uop.is_mem()) {
        disp = std::max(disp, lsq_.window_bound());
      }
      disp = std::max(disp, iq_window_[c][q].window_bound());
      // A consumer needing a cross-cluster copy cannot dispatch until the
      // producer's copy queue has a free slot — the simulator's
      // request_copy backpressure, which stalls the whole in-order frontend
      // behind it, not just this micro-op's operand. Note the copies this
      // dispatch will generate while we are at it: each one consumes a
      // decode/rename slot of its value's kind in the dispatch cycle, the
      // first-order front-end cost of communication-heavy steering (a
      // scheme generating 10% copies loses 10% of its decode bandwidth).
      std::uint32_t copy_slots[2] = {0, 0};
      for (std::uint8_t s = 0; s < uop.num_srcs; ++s) {
        if (s == 1 && isa::flat_reg(uop.srcs[1]) == isa::flat_reg(uop.srcs[0]))
          continue;  // dual read of one value needs a single copy
        const RegState& r = regs_[isa::flat_reg(uop.srcs[s])];
        if ((r.mask & (1u << c)) == 0) {
          disp = std::max(disp, copy_window_[r.home].window_bound());
          ++copy_slots[uop.srcs[s].file == isa::RegFile::kFp ? 1 : 0];
        }
      }

      // --- issue: behind wakeup, operand arrival and the cluster's ports ---
      std::uint64_t issue = disp + 1;
      for (std::uint8_t s = 0; s < uop.num_srcs; ++s) {
        issue = std::max(
            issue, operand_ready(isa::flat_reg(uop.srcs[s]), c, disp, &est));
      }
      issue = iq_rate_[c][q].place(issue, disp + 1);

      std::uint64_t done = issue + isa::latency(uop.op);
      if (uop.is_load()) done += load_extra[i];

      // --- commit: in-order, per-file commit width ---
      std::uint64_t commit = std::max(done, last_commit);
      commit = std::max(commit, commit_[q].rate_bound());

      decode_[q].push(disp);
      for (std::uint32_t k = 0; k < 2; ++k) {
        for (std::uint32_t j = 0; j < copy_slots[k]; ++j) decode_[k].push(disp);
      }
      iq_window_[c][q].push(issue);
      rob_[q].push(commit);
      commit_[q].push(commit);
      // Loads leave the LSQ when the cache answers; only stores hold their
      // slot until commit (same release rule as the simulator's CommitUnit).
      if (uop.is_load()) lsq_.push(done);
      if (uop.is_store()) lsq_.push(commit);
      last_disp = disp;
      last_commit = commit;

      if (uop.has_dst) {
        RegState& r = regs_[isa::flat_reg(uop.dst)];
        r.has_writer = true;
        r.home = c;
        r.mask = 1u << c;
        r.write_index = i;
        r.avail[c] = done;
      }
    }
    est.cycles = interval.empty() ? 0 : last_commit + 1;
    est.committed_uops = interval.size();
    return est;
  }

 private:
  /// Time the value in flat register `reg` is usable at cluster `c`,
  /// charging (and recording) an inter-cluster copy when it is not yet
  /// resident there, with the same shape as the simulator's copy path:
  /// the copy is created at the consumer's dispatch (never earlier), holds
  /// a producer copy-queue slot until selected (iq_copy_entries window,
  /// issue_width_copy per cycle), crosses hops * link_latency of fabric,
  /// and pays the wakeup/select and register-file-write endpoint cycles.
  /// The endpoint charge is gated on a non-free fabric so a zero-latency
  /// interconnect still collapses exactly onto the single-cluster dataflow
  /// bound (the anchor tests/model_test.cpp pins).
  ///
  /// A (src, c) link pool's only feeder is copy_rate_[src], which books at
  /// most issue_width_copy copies in any cycle, so a link pool at least
  /// that wide returns every cycle it is given. The walker therefore builds
  /// link pools only when copies_per_link_cycle < issue_width_copy
  /// (limited_bw_); a pool with any other feeder must be built whatever
  /// its width.
  std::uint64_t operand_ready(std::uint16_t reg, std::uint32_t c,
                              std::uint64_t disp, IntervalEstimate* est) {
    RegState& r = regs_[reg];
    if (r.mask & (1u << c)) return r.avail[c];
    const std::uint32_t src = r.home;
    const std::uint64_t start = std::max(r.avail[src], disp + 1);
    std::uint64_t t = copy_rate_[src].place(start, disp + 1);
    if (limited_bw_) t = link_[src][c].place(t, disp + 1);
    copy_window_[src].push(t);
    const std::uint32_t hops = topology_distance(
        machine_.interconnect.kind, machine_.num_clusters, src, c);
    const std::uint32_t endpoint =
        machine_.interconnect.link_latency > 0 ? 2 : 0;
    const std::uint64_t arrival =
        t + std::uint64_t{hops} * machine_.interconnect.link_latency + endpoint;
    r.avail[c] = arrival;
    r.mask |= 1u << c;
    ++est->copies;
    est->copy_hops += hops;
    return arrival;
  }

  /// Cluster with the smallest share of the last kBalanceWindow assignments
  /// — the model's resource-independent stand-in for the policies'
  /// least-inflight counter.
  std::uint32_t least_loaded() const {
    std::uint32_t best = 0;
    for (std::uint32_t c = 1; c < machine_.num_clusters; ++c) {
      if (recent_[c] < recent_[best]) best = c;
    }
    return best;
  }

  /// Resource-independent steering approximation (see file header of
  /// critpath.hpp). OP mirrors OpPolicy::flat_preferred: one vote per
  /// source operand for every cluster already holding (or already
  /// receiving a copy of) the value, most votes wins, ties and the no-vote
  /// case fall to the least recently loaded cluster. VC mirrors VcPolicy:
  /// a virtual-cluster table remapped to the least loaded cluster at chain
  /// leaders. OB/RHOP follow their static hints.
  std::uint32_t steer(const isa::MicroOp& uop, std::uint64_t index) {
    const std::uint32_t n = machine_.num_clusters;
    std::uint32_t c = n;  // sentinel: fall through to OP-like.
    switch (scheme_) {
      case steer::Scheme::kOneCluster:
        c = 0;
        break;
      case steer::Scheme::kOb:
      case steer::Scheme::kRhop:
        if (uop.hint.has_static_cluster()) {
          c = static_cast<std::uint32_t>(uop.hint.static_cluster) % n;
        }
        break;
      case steer::Scheme::kVc:
        if (uop.hint.has_vc()) {
          int& slot = vc_table_[uop.hint.vc_id];
          if (uop.hint.chain_leader || slot < 0) {
            slot = static_cast<int>(least_loaded());
          }
          c = static_cast<std::uint32_t>(slot) % n;
        } else {
          c = least_loaded();
        }
        break;
      case steer::Scheme::kOp:
      case steer::Scheme::kParallelOp:  // walked_scheme maps it to kOp.
        break;
    }
    if (c >= n) {
      std::uint32_t votes[kMaxClusters] = {};
      bool any = false;
      for (std::uint8_t s = 0; s < uop.num_srcs; ++s) {
        const RegState& r = regs_[isa::flat_reg(uop.srcs[s])];
        if (!r.has_writer) continue;
        any = true;
        const std::uint32_t weight =
            index - r.write_index < kInFlightWindow ? 2 : 1;
        for (std::uint32_t cand = 0; cand < n; ++cand) {
          if (r.mask & (1u << cand)) votes[cand] += weight;
        }
      }
      if (!any) {
        c = least_loaded();
      } else {
        c = 0;
        for (std::uint32_t cand = 1; cand < n; ++cand) {
          if (votes[cand] > votes[c] ||
              (votes[cand] == votes[c] && recent_[cand] < recent_[c])) {
            c = cand;
          }
        }
        // Stall-over-steer analog: OpPolicy diverts when the preferred
        // cluster's IQ runs hot. The model's stand-in for "hot" is taking
        // more than 1.5x its fair share of the recent assignment window
        // (the simulator's threshold is relative to one cluster's IQ
        // capacity, so the model's must scale with cluster count too).
        if (recent_[c] * 2 * n > 3 * kBalanceWindow) c = least_loaded();
      }
    }
    // Record the assignment in the sliding balance window.
    if (window_.size() < kBalanceWindow) {
      window_.push_back(c);
    } else {
      --recent_[window_[window_pos_]];
      window_[window_pos_] = c;
      window_pos_ = (window_pos_ + 1) % kBalanceWindow;
    }
    ++recent_[c];
    return c;
  }

  const prog::Program& program_;
  const MachineConfig& machine_;
  steer::Scheme scheme_;
  bool limited_bw_ = false;

  std::array<RegState, isa::kNumFlatRegs> regs_{};
  std::array<std::uint32_t, kMaxClusters> recent_{};
  std::vector<std::uint32_t> window_;
  std::size_t window_pos_ = 0;
  std::array<int, 256> vc_table_{};
  Stream decode_[2];
  Stream rob_[2];
  Stream commit_[2];
  FreePool lsq_;
  FreePool iq_window_[kMaxClusters][2];
  FreePool copy_window_[kMaxClusters];
  RatePool iq_rate_[kMaxClusters][2];
  RatePool copy_rate_[kMaxClusters];
  RatePool link_[kMaxClusters][kMaxClusters];
};

}  // namespace

std::vector<std::uint32_t> memory_latencies(
    const prog::Program& program,
    std::span<const workload::TraceEntry> interval,
    std::span<const std::uint32_t> warm_addrs, const MachineConfig& machine) {
  // The simulator's hierarchy, warmed by its own rule. Without port
  // arbitration it reads only l1d, l2 and memory_latency.
  mem::MemoryHierarchy memory(machine);
  for (const std::uint32_t addr : warm_addrs) memory.warm(addr);
  std::vector<std::uint32_t> extra(interval.size(), 0);
  for (std::size_t i = 0; i < interval.size(); ++i) {
    const isa::MicroOp& uop = program.uop(interval[i].uop);
    if (!uop.is_mem()) continue;
    const std::uint32_t lat = memory.lookup_latency(interval[i].addr);
    // Stores still update the caches (they do in the simulator too), but
    // only loads gate dependent work on the access latency.
    if (uop.is_load()) extra[i] = lat;
  }
  return extra;
}

IntervalEstimate estimate_interval(
    const prog::Program& program,
    std::span<const workload::TraceEntry> interval,
    std::span<const std::uint32_t> load_extra, const MachineConfig& machine,
    steer::Scheme scheme) {
  VCSTEER_CHECK(load_extra.size() == interval.size());
  Walker walker(program, machine, scheme);
  return walker.walk(interval, load_extra);
}

}  // namespace vcsteer::model
