// In-memory span recording for the traced runs.
//
// A span is one timed call from the benchmark into a library layer: its name
// ("<layer>.<call>"), start, end, the span that caused it, and the grid cell
// it served. Each thread records into its own SpanLog (no locking on the hot
// path); the logs are merged after the run, written out as Chrome
// trace-event JSON, and folded into per-layer self times.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span.
  std::uint64_t cell = 0;    ///< grid cell id; 0 when the span serves none.
  std::uint32_t tid = 0;
  double t0_s = 0;  ///< seconds since the log's epoch.
  double t1_s = 0;
  double seconds() const { return t1_s - t0_s; }
  /// Text before the first '.', e.g. "sim" for "sim.evaluate".
  std::string layer() const { return name.substr(0, name.find('.')); }
};

/// Span recorder of one thread.
class SpanLog {
 public:
  SpanLog(std::uint32_t tid, Clock::time_point epoch) : tid_(tid), epoch_(epoch) {}

  std::uint64_t begin(std::string name, std::uint64_t parent,
                      std::uint64_t cell = 0);
  void end(std::uint64_t id);
  /// Duration of an ended span.
  double seconds(std::uint64_t id) const { return spans_[index(id)].seconds(); }
  std::vector<Span>& spans() { return spans_; }

 private:
  static std::size_t index(std::uint64_t id) {
    return (id & ((std::uint64_t{1} << 40) - 1)) - 1;
  }

  std::uint32_t tid_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class Scope {
 public:
  Scope(SpanLog& log, std::string name, std::uint64_t parent,
        std::uint64_t cell = 0)
      : log_(log), id_(log.begin(std::move(name), parent, cell)) {}
  ~Scope() { log_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

/// Durations (seconds) of every span called `name`.
std::vector<double> durations(const std::vector<Span>& spans,
                              const std::string& name);
/// Summed seconds of every span whose name starts with `prefix`.
double total_seconds(const std::vector<Span>& spans, const std::string& prefix);

/// Per-layer self time of one traced run. A span's self time is its
/// duration minus its same-thread children; the root's is the part of its
/// interval no child on any thread covers — the unattributed remainder.
/// Layer figures are thread-seconds, so with worker threads they can sum
/// past the wall time.
struct LayerSelf {
  std::string layer;
  double self_s = 0;
  std::size_t spans = 0;
};
struct SelfTimes {
  std::vector<LayerSelf> layers;  ///< sorted by layer name.
  double unattributed_s = 0;
};
SelfTimes self_times(const std::vector<Span>& spans, std::uint64_t root);

/// Writes `runs` (one process row per traced workload) as Chrome
/// trace-event JSON. Returns false if the file cannot be written.
struct TracedRun {
  std::string workload;
  std::uint64_t root = 0;  ///< the span covering the traced repetition.
  std::vector<Span> spans;
};
bool write_chrome_trace(const std::string& path,
                        const std::vector<TracedRun>& runs);

}  // namespace perfbench
