// Front-end fetch stage: trace-driven fetch (fetch_width per cycle) into
// the fetch-to-dispatch pipe. The pipe models the decode-pipeline depth of
// the paper's Figure 1 monolithic front-end: an entry fetched in cycle t
// becomes visible to the steer stage in cycle t + fetch_to_dispatch.
#pragma once

#include <cstddef>
#include <span>

#include "common/config.hpp"
#include "common/fixed_queue.hpp"
#include "sim/observer.hpp"
#include "workload/trace.hpp"

namespace vcsteer::sim {

class FrontEnd {
 public:
  explicit FrontEnd(const MachineConfig& config)
      : config_(config),
        queue_(config.fetch_width * (config.fetch_to_dispatch + 2) + 16) {}

  void reset() {
    queue_.clear();
    trace_pos_ = 0;
  }

  /// Fetch up to fetch_width trace entries into the pipe.
  template <Observer Obs>
  void fetch(std::span<const workload::TraceEntry> trace, std::uint64_t cycle,
             Obs& obs) {
    for (std::uint32_t k = 0;
         k < config_.fetch_width && trace_pos_ < trace.size(); ++k) {
      if (queue_.full()) break;
      if constexpr (Obs::enabled) {
        obs.on_fetch(FetchEvent{trace[trace_pos_].uop, cycle});
      }
      queue_.push(Entry{trace[trace_pos_], cycle + config_.fetch_to_dispatch});
      ++trace_pos_;
    }
  }

  /// True once the whole trace has been fetched and the pipe has drained.
  bool drained(std::span<const workload::TraceEntry> trace) const {
    return trace_pos_ >= trace.size() && queue_.empty();
  }

  /// True when the oldest entry has cleared the pipe and can dispatch.
  bool has_ready(std::uint64_t cycle) const {
    return !queue_.empty() && queue_.front().ready_cycle <= cycle;
  }

  // ----- idle-cycle fast-forward probes (ClusteredCoreT::skip_idle_cycles) --
  /// True when fetch would make progress this cycle.
  bool can_fetch(std::span<const workload::TraceEntry> trace) const {
    return trace_pos_ < trace.size() && !queue_.full();
  }
  bool pipe_empty() const { return queue_.empty(); }
  /// Cycle the oldest in-pipe entry clears the pipe; pipe must be nonempty.
  std::uint64_t next_ready_cycle() const { return queue_.front().ready_cycle; }

  const workload::TraceEntry& front() const { return queue_.front().entry; }
  void pop() { queue_.pop(); }

 private:
  struct Entry {
    workload::TraceEntry entry;
    std::uint64_t ready_cycle = 0;  ///< fetch cycle + fetch_to_dispatch.
  };

  const MachineConfig& config_;
  FixedQueue<Entry> queue_;
  std::size_t trace_pos_ = 0;
};

}  // namespace vcsteer::sim
