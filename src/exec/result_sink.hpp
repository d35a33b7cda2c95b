// Aggregation of sweep results into tables and a JSON document.
//
// A bench pushes the raw SweepResult plus every derived stats::Table it
// prints; write_json() then emits one self-describing document
//   {"bench":..., "sweep":{"points":N}, "results":[{per-point record}...],
//    "tables":[{title,columns,rows}...]}
// so a single --json file carries both the full-precision raw points (for
// plotting/regression-diffing) and the rendered figure tables. The document
// is a pure function of the grid — a run at any --jobs, or one served from
// a result cache, emits identical bytes. Execution metadata
// (simulated/cache-hit counts, wall time, phase spans) goes in the separate
// --summary-json document (RunSummary below) that CI gates assert on.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "exec/sweep.hpp"
#include "harness/experiment.hpp"
#include "stats/table.hpp"

namespace vcsteer::exec {

/// Machine-readable outcome of one bench invocation, written as the
/// `--summary-json` file. CI gates assert on these fields instead of
/// grepping the human-oriented stderr text: `sweep.simulated ==
/// sweep.points` *is* "every point was simulated".
struct RunSummary {
  std::string bench;
  /// The run produced its output (a failed --json write makes it false).
  bool ok = true;
  double wall_seconds = 0.0;
  /// Every sweep of the run, summed with SweepCounters::operator+=.
  SweepCounters sweep;
  /// What only the recorded results give: the points of the run's sweeps
  /// and their cycles, simulated or cache-served.
  std::size_t points = 0;
  std::uint64_t cycles = 0;
  /// Parsed command-line options echoed back verbatim (name -> final value,
  /// emitted by the declarative option table in bench/bench_main.hpp) so a
  /// summary is self-describing about the invocation that produced it.
  std::vector<std::pair<std::string, std::string>> options;
};

/// One-line JSON document:
///   {"bench":...,"ok":...,"wall_seconds":...,
///    "sweep":{"points","simulated","cache_hits","corrupt_recovered"},
///    "phases":{"trace_build_s","annotate_s","warmup_s","simulate_s",
///              "cache_io_s"},
///    "events":{"experiments","cycles"},
///    "model":null | {"top_k","estimated","pruned","spearman","top3_overlap"},
///    "options":{flag:final-value...}}
void write_summary_json(std::ostream& os, const RunSummary& summary);

class ResultSink {
 public:
  explicit ResultSink(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Record every point of `sweep`. Execution counters are NOT recorded: the JSON document stays a pure function of the grid
  /// (see write_json), and run metadata goes through RunSummary instead.
  void add_sweep(const SweepResult& sweep);
  void add_table(stats::Table table);

  void write_json(std::ostream& os) const;

 private:
  std::string bench_name_;
  std::vector<harness::RunResult> results_;
  std::vector<stats::Table> tables_;
};

}  // namespace vcsteer::exec
