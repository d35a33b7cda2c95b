// Multi-process worker launcher with crash recovery.
//
// launch_workers() is the process supervisor behind `--launch N`: it forks
// and execs every worker with its stderr on a pipe (stdout goes to
// /dev/null, so a worker's rendered tables never mix into the parent's),
// streams worker output back through a callback as it arrives, reaps
// exited workers with a periodic waitpid(WNOHANG) pass (never by waiting
// for pipe EOF, so a worker that closes its stderr — or leaks the write end
// to a longer-lived grandchild — cannot hang or starve the monitor), and
// respawns any worker that exits non-zero or is killed by a signal, up to a
// bounded retry count per worker.
//
// Crash recovery composes with the sweep service rather than duplicating
// it: the bench's workers lease jobs from one vcsteer-sweepd, a dead
// worker's connection hands its leases back to the queue, and a respawned
// worker re-probes the daemon's store, so work the dead attempt already
// published is a store hit and only the genuinely missing points are
// re-simulated. ResultCache::store() is fsync-and-rename atomic, so a
// worker killed mid-write never publishes a truncated entry (see cache.hpp).
//
// Each attempt runs with VCSTEER_LAUNCH_ATTEMPT=<1-based attempt> in its
// environment; the bench driver's test-only crash knobs key off it to kill
// a worker on its first attempt but let the retry succeed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace vcsteer::exec {

/// Final state of one worker slot. A bench's sweep worker i leases under
/// client id `w<i>`.
struct WorkerStatus {
  std::uint32_t index = 0;
  /// Spawns performed; 1 means the first attempt succeeded.
  unsigned attempts = 0;
  /// The last attempt exited with status 0.
  bool ok = false;
  /// Exit code of the last attempt (-1 when it died to a signal; 127 when
  /// the exec itself failed).
  int exit_code = -1;
  /// Terminating signal of the last attempt (0 when it exited normally).
  int term_signal = 0;
};

struct LaunchReport {
  std::vector<WorkerStatus> workers;
  /// Every worker eventually succeeded.
  bool ok = false;

  std::size_t failed_workers() const {
    std::size_t n = 0;
    for (const WorkerStatus& w : workers) n += !w.ok;
    return n;
  }
};

struct LaunchOptions {
  /// argv for each worker slot; argv[0] is the executable (resolved via
  /// PATH when it contains no '/').
  std::vector<std::vector<std::string>> worker_argv;
  /// Respawns allowed per worker after its first attempt: a worker runs at
  /// most `1 + max_retries` times.
  unsigned max_retries = 2;
  /// Stderr bytes from a worker as they arrive (raw chunks, not lines);
  /// called only from the launching thread.
  std::function<void(std::uint32_t worker, std::string_view chunk)> on_output;
  /// After every finished attempt: the status so far and whether a retry
  /// will be spawned. `status.ok` is the attempt's verdict.
  std::function<void(const WorkerStatus& status, bool will_retry)> on_attempt;
};

/// Spawns every worker, streams their stderr, and blocks until each has
/// either succeeded or exhausted its retries. Never throws on worker
/// failure — that is what the report is for.
LaunchReport launch_workers(const LaunchOptions& opt);

}  // namespace vcsteer::exec
