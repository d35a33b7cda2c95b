// Steer/dispatch stage: the in-order decode/rename/steer pipe of the
// paper's Figure 1 monolithic front-end. Per cycle it consults the active
// SteeringPolicy for each renamed micro-op, checks every downstream
// resource *cumulatively* (ROB/LSQ slots, issue-queue entry, physical
// registers for the destination and any copy replicas, copy-queue slots in
// the producer clusters, and decode bandwidth for the generated copy
// micro-ops) before mutating any state, then commits the dispatch: rename,
// copy requests into the copy network, issue-queue insert, ROB/LSQ
// allocation.
//
// Templated on the run's Observer: every stall return fires on_stall with
// its reason (mirroring the SimStats stall counters one-to-one) and every
// committed dispatch fires on_steer with the per-cluster scores the policy
// computed. With NullObserver all hook sites compile away.
#pragma once

#include <algorithm>
#include <array>

#include "common/check.hpp"
#include "sim/commit.hpp"
#include "sim/copy_network.hpp"
#include "sim/core_state.hpp"
#include "sim/frontend.hpp"
#include "sim/observer.hpp"
#include "steer/policy.hpp"

namespace vcsteer::sim {

template <Observer Obs>
class SteerStage {
 public:
  SteerStage(CoreState& state, FrontEnd& frontend, CommitUnit<Obs>& commit,
             CopyNetwork<Obs>& copies, Obs& obs)
      : state_(state),
        frontend_(frontend),
        commit_(commit),
        copies_(copies),
        obs_(obs) {}

  void reset() { head_stall_counter_ = nullptr; }

  /// The stall counter the last dispatch() bumped when its *first* micro-op
  /// stalled (nullptr when anything dispatched or no stall occurred). While
  /// the machine state is otherwise frozen — no fetch, no completion, no
  /// ready issue-queue entry, no commit — the same head-of-line stall
  /// repeats every cycle (SteeringPolicy::choose must not mutate externally
  /// visible state, and every SteerView input is event-driven), so the
  /// idle-cycle fast-forward can bulk-add this counter across the jump.
  std::uint64_t* head_stall_counter() const { return head_stall_counter_; }

  /// One cycle of dispatch. `view` is the SteerView handed to the policy
  /// (the composed core, so policies see the whole machine).
  void dispatch(steer::SteeringPolicy& policy, const steer::SteerView& view) {
    if (!frontend_.has_ready(state_.cycle)) {
      // Empty front-end: nothing can dispatch, so the cycle reduces to the
      // one stall bump, and begin_cycle is not consulted (policies only
      // observe cycles that could dispatch — the idle-cycle fast-forward
      // already jumps such cycles without it). Renames only happen on
      // dispatch, so a cycle-start latch misses none.
      head_stall_counter_ = nullptr;
      dispatched_any_ = false;
      stall(StallReason::kFrontendEmpty, state_.stats.frontend_empty);
      return;
    }
    policy.begin_cycle(view);

    const MachineConfig& config = state_.config;
    std::uint32_t int_budget = config.decode_width_int;
    std::uint32_t fp_budget = config.decode_width_fp;
    head_stall_counter_ = nullptr;
    dispatched_any_ = false;

    while (int_budget + fp_budget > 0) {
      if (!frontend_.has_ready(state_.cycle)) {
        stall(StallReason::kFrontendEmpty, state_.stats.frontend_empty);
        return;
      }
      const workload::TraceEntry entry = frontend_.front();
      const isa::MicroOp& uop = state_.program.uop(entry.uop);
      const bool fp = isa::uses_fp_queue(uop.op);
      std::uint32_t& budget = fp ? fp_budget : int_budget;
      if (budget == 0) return;  // in-order: cannot dispatch around the head

      // ROB slot of the right kind.
      if (commit_.rob_full(fp)) {
        stall(StallReason::kRob, state_.stats.rob_stalls);
        return;
      }
      if (uop.is_mem() && commit_.lsq_full()) {
        stall(StallReason::kLsq, state_.stats.lsq_stalls);
        return;
      }

      const steer::SteerDecision decision = policy.choose(uop, view);
      if (decision.is_stall()) {
        stall(StallReason::kPolicy, state_.stats.policy_stalls);
        return;
      }
      const auto c = static_cast<std::uint32_t>(decision.cluster);
      VCSTEER_CHECK_MSG(c < config.num_clusters,
                        "policy returned an invalid cluster");
      ClusterState& cl = state_.clusters[c];

      // Issue-queue slot in the chosen cluster — the paper's workload-balance
      // metric counts exactly these allocation stalls.
      if (state_.used_for(cl, uop.op) >= state_.iq_capacity(uop.op)) {
        stall(StallReason::kAllocFull, state_.stats.alloc_stalls);
        return;
      }
      // Inter-cluster copies for remote sources. All resource checks must
      // pass before any state is mutated, so gather the needs first and check
      // them *cumulatively* (two copies may share a producer's copy queue, and
      // copy replicas compete with the destination for target registers).
      const bool dst_fp = uop.has_dst && uop.dst.file == isa::RegFile::kFp;
      Tag copy_needed[2] = {kNoTag, kNoTag};
      std::uint8_t num_copies = 0;
      for (std::uint8_t s = 0; s < uop.num_srcs; ++s) {
        const Tag tag = state_.rename[isa::flat_reg(uop.srcs[s])];
        if (tag == kNoTag) continue;
        if ((state_.values.holders(tag) & cluster_bit(c)) != 0) continue;
        if (num_copies == 1 && copy_needed[0] == tag) continue;
        copy_needed[num_copies++] = tag;
      }
      std::uint32_t reg_need_int = 0;
      std::uint32_t reg_need_fp = 0;
      if (uop.has_dst) ++(dst_fp ? reg_need_fp : reg_need_int);
      std::array<std::uint32_t, kMaxClusters> copyq_need{};
      for (std::uint8_t k = 0; k < num_copies; ++k) {
        ++copyq_need[state_.values.home(copy_needed[k])];
        ++(state_.values.fp(copy_needed[k]) ? reg_need_fp : reg_need_int);
      }
      if (cl.regs_used_int + reg_need_int > config.regfile_int ||
          cl.regs_used_fp + reg_need_fp > config.regfile_fp) {
        stall(StallReason::kRegfile, state_.stats.regfile_stalls);
        return;
      }
      bool copies_ok = true;
      for (std::uint32_t p = 0; p < config.num_clusters && copies_ok; ++p) {
        if (state_.clusters[p].copy_used + copyq_need[p] >
            config.iq_copy_entries) {
          copies_ok = false;
        }
      }
      if (!copies_ok) {
        stall(StallReason::kCopyQueue, state_.stats.copyq_stalls);
        return;
      }
      // Copy micro-ops are generated at this stage and consume decode/rename
      // bandwidth like any other micro-op (each copy takes one slot of its
      // value's kind). This is the first-order cost of communication-heavy
      // steering: a scheme generating 10% copies loses 10% of its front-end.
      std::uint32_t copy_slots_int = 0;
      std::uint32_t copy_slots_fp = 0;
      for (std::uint8_t k = 0; k < num_copies; ++k) {
        ++(state_.values.fp(copy_needed[k]) ? copy_slots_fp : copy_slots_int);
      }
      {
        std::uint32_t need_int = copy_slots_int + (fp ? 0 : 1);
        std::uint32_t need_fp = copy_slots_fp + (fp ? 1 : 0);
        if (need_int > int_budget || need_fp > fp_budget) {
          stall(StallReason::kCopyBandwidth, state_.stats.copy_bandwidth_stalls);
          return;
        }
        int_budget -= copy_slots_int;  // the uop's own slot is taken below
        fp_budget -= copy_slots_fp;
      }

      // ---- commit the dispatch ----
      const std::uint64_t seq = commit_.next_seq();
      for (std::uint8_t k = 0; k < num_copies; ++k) {
        const std::uint32_t hops =
            view.copy_distance(state_.values.home(copy_needed[k]), c);
        ++state_.stats.remote_steers_by_hops[std::min(hops, kMaxClusters - 1)];
        const bool ok = copies_.request_copy(copy_needed[k], c, seq);
        VCSTEER_CHECK(ok);
      }

      IqEntry iq;
      iq.uop = entry.uop;
      iq.seq = seq;
      iq.num_srcs = uop.num_srcs;
      for (std::uint8_t s = 0; s < uop.num_srcs; ++s) {
        iq.src_tags[s] = state_.rename[isa::flat_reg(uop.srcs[s])];
      }
      iq.addr = entry.addr;

      RobEntry rob;
      rob.uop = entry.uop;
      rob.cluster = static_cast<std::uint8_t>(c);
      rob.fp_slot = fp;
      rob.is_store = uop.is_store();
      rob.is_load = uop.is_load();
      if (uop.has_dst) {
        const std::uint16_t flat = isa::flat_reg(uop.dst);
        rob.prev_tag = state_.rename[flat];
        const Tag tag =
            state_.alloc_value(static_cast<std::uint8_t>(c), dst_fp);
        state_.rename[flat] = tag;
        rob.dst_tag = tag;
        iq.dst_tag = tag;
        (dst_fp ? cl.regs_used_fp : cl.regs_used_int) += 1;
      }

      // Pool insert + wakeup registration: one waiter per distinct source not
      // yet available here (home completion or the just-requested copy's
      // arrival publishes it); an entry with no pending sources goes straight
      // onto the ready list and can issue next cycle.
      SlotPool<IqEntry>& queue = state_.queue_for(cl, uop.op);
      const std::uint32_t slot = queue.alloc();
      const WaiterKind kind = fp ? WaiterKind::kIqFp : WaiterKind::kIqInt;
      IqEntry& inserted = queue[slot];
      inserted = iq;
      for (std::uint8_t s = 0; s < uop.num_srcs; ++s) {
        const Tag tag = inserted.src_tags[s];
        if (tag == kNoTag) continue;
        if (s == 1 && tag == inserted.src_tags[0]) continue;  // dual read
        if ((state_.values.avail_mask(tag) & cluster_bit(c)) != 0) continue;
        state_.add_waiter(tag, static_cast<std::uint8_t>(c), kind, slot);
        ++inserted.waiting_srcs;
      }
      if (inserted.waiting_srcs == 0) queue.ready_insert(slot);
      ++state_.used_for(cl, uop.op);

      const std::uint64_t allocated = commit_.allocate(rob, uop.is_mem());
      VCSTEER_DCHECK(allocated == seq);
      (void)allocated;
      ++cl.inflight;
      dispatched_any_ = true;
      ++state_.stats.dispatched_uops;
      ++state_.stats.dispatched_to[c];
      frontend_.pop();
      --budget;
      policy.on_dispatched(uop, c);
      if constexpr (Obs::enabled) {
        obs_.on_steer(SteerEvent{entry.uop, seq, c, num_copies, state_.cycle,
                                 policy.last_scores()});
      }
    }
  }

 private:
  /// Bump `counter` for this cycle's dispatch stall; when the stall hit the
  /// cycle's first micro-op, remember the counter for head_stall_counter().
  void stall(StallReason reason, std::uint64_t& counter) {
    ++counter;
    if (!dispatched_any_) head_stall_counter_ = &counter;
    if constexpr (Obs::enabled) {
      obs_.on_stall(StallEvent{reason, state_.cycle});
    }
  }

  CoreState& state_;
  FrontEnd& frontend_;
  CommitUnit<Obs>& commit_;
  CopyNetwork<Obs>& copies_;
  Obs& obs_;
  std::uint64_t* head_stall_counter_ = nullptr;
  bool dispatched_any_ = false;
};

}  // namespace vcsteer::sim
