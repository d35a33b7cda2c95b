// Aggregation of sweep results into tables and a JSON document.
//
// A bench pushes the raw SweepResult plus every derived stats::Table it
// prints; write_json() then emits one self-describing document
//   {"bench":..., "sweep":{"points":N}, "results":[{per-point record}...],
//    "tables":[{title,columns,rows}...]}
// so a single --json file carries both the full-precision raw points (for
// plotting/regression-diffing) and the rendered figure tables. The document
// is a pure function of the grid — cached, launched and networked runs all
// emit identical bytes. Execution metadata (simulated/cache-hit counts,
// wall time, worker status) goes in the separate --summary-json document
// (RunSummary below) that CI gates assert on.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/launcher.hpp"
#include "exec/sweep.hpp"
#include "harness/experiment.hpp"
#include "stats/table.hpp"

namespace vcsteer::exec {

/// Machine-readable outcome of one bench invocation, written as the
/// `--summary-json` file. CI gates assert on these fields instead of
/// grepping the human-oriented stderr text: `sweep.simulated == 0` *is*
/// "the assembly run was a pure cache read".
struct RunSummary {
  std::string bench;
  /// False when a launched worker exhausted its retries (the process also
  /// exits non-zero in that case, but the summary still explains why).
  bool ok = true;
  double wall_seconds = 0.0;
  /// Every sweep of the run, summed with SweepCounters::operator+=.
  SweepCounters sweep;
  /// What only the recorded results give: the points this run assembled
  /// and their cycles, simulated or cache-served.
  std::size_t points = 0;
  std::uint64_t cycles = 0;
  /// Worker-process orchestration (`--launch N`): one status per worker
  /// slot; none means the bench launched no workers and the `launch` JSON
  /// field is null.
  std::vector<WorkerStatus> shards;
  unsigned launch_max_retries = 0;
  /// Sweep-service involvement (`--connect` / `--launch`);
  /// disabled means the `net` JSON field is null.
  struct NetSummary {
    bool enabled = false;
    std::string server;  ///< the daemon's address
    std::string role;    ///< "connect", or "serve" for a --launch parent
    /// This process's wire traffic (StoreClient counters).
    std::uint64_t gets = 0;
    std::uint64_t puts = 0;
    std::uint64_t reconnects = 0;
    /// Per-client jobs-pulled tallies from the server (STATS) — every
    /// leasing worker of the sweep, not just this process.
    std::map<std::string, std::uint64_t> workers;
  };
  NetSummary net;
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
///    "launch":null | {"workers","max_retries","ok","failed_shards",
///                     "shards":[{"shard","attempts","ok","exit_code","signal"}]},
///    "net":null | {"server","role","jobs_pulled","gets","puts","reconnects",
///                  "workers":{client-id:jobs-pulled...}},
///    "model":null | {"top_k","estimated","pruned","spearman","top3_overlap"},
///    "options":{flag:final-value...}}
void write_summary_json(std::ostream& os, const RunSummary& summary);

class ResultSink {
 public:
  explicit ResultSink(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Record every point of `sweep`, which must hold the whole grid (in a
  /// pull pass, cells other workers pulled stay empty). Execution counters
  /// are NOT recorded: the JSON document stays a pure function of the grid
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
