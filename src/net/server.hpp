// vcsteer-sweepd: the sweep-service daemon core.
//
// One SweepServer owns the authoritative ResultCache for a farm of sweep
// workers and hands out (trace, machine) jobs on lease, a pull model: fast
// workers lease more jobs; a crashed worker's leases return to the queue
// when its connection closes, a hung worker's when they expire, and
// someone else picks them up. The server itself is a single poll() loop —
// no threads, no locks — which keeps every queue transition trivially
// ordered; the heavy lifting (simulation) all happens client-side.
//
// Protocol (one length-prefixed frame per message, see frame.hpp; the
// payload is `VERB args...\n` + optional body):
//
//   PING                        -> PONG
//   GET\n<key>                  -> HIT\n<result> | MISS | CORRUPT
//   PUT\n<key>--\n<result>      -> OK
//   LEASE <sweep> <njobs> <id>  -> JOB <index> | WAIT | EMPTY | ERR <msg>
//   DONE <sweep> <index>        -> OK | ERR <msg>
//   STATS <sweep>               -> STATS\n<id> <jobs-pulled>\n...
//
// <sweep> is the grid fingerprint in hex (exec::grid_fingerprint) and
// <njobs> lies in [1, kMaxSweepJobs]; <key> and <result> are the exact
// cache-entry texts (exec::cache_key / encode_result), so the server never
// decodes results — it is a durability and scheduling layer, not a
// simulator.
//
// Crash safety: GET/PUT go straight to the fsync-rename ResultCache, so
// results survive a server SIGKILL. Lease state is in memory and dies with
// the server — deliberately: on restart the first LEASE recreates the
// queue, and re-leased jobs that were already finished become instant
// cache hits client-side, so a restarted sweep converges to byte-identical
// results instead of needing a journal.
#pragma once

#include <cstdint>
#include <string>

#include "net/frame.hpp"

namespace vcsteer::net {

/// Largest job count a LEASE may open a sweep with. The count comes from
/// the client and the queue holds one entry per job, so without a ceiling
/// one frame could make the daemon allocate until it dies. The largest grid
/// in the repository has a few thousand (trace, machine) jobs.
inline constexpr std::uint64_t kMaxSweepJobs = 1u << 20;

/// Longest lease timeout, in seconds, a SweepServer accepts. A deadline is
/// `now + timeout` in the steady clock's 64-bit nanoseconds, so the
/// timeout must be finite and far below ~292 years; 1e6 s (11.6 days) is
/// far beyond any job and far inside that range.
inline constexpr double kMaxLeaseTimeoutS = 1e6;

struct ServerOptions {
  /// Listen address: `unix:/path` or `[tcp:]host:port`.
  std::string listen;
  /// Directory of the authoritative ResultCache.
  std::string cache_dir;
  /// Seconds before an unacknowledged lease expires back onto the queue,
  /// in (0, kMaxLeaseTimeoutS]. A closed connection returns its leases at
  /// once; expiry is for a hung worker, or a TCP peer that vanished without
  /// closing.
  double lease_timeout_s = 30.0;
  /// Test knob: after granting this many leases (across all sweeps), the
  /// server SIGKILLs itself — a deterministic mid-sweep crash for the
  /// crash-recovery gate. 0 disables.
  std::uint64_t crash_after_leases = 0;
};

class SweepServer {
 public:
  /// Checks the options, then binds and listens. Check ok() before
  /// serve(); error() says why not.
  explicit SweepServer(const ServerOptions& opt);
  ~SweepServer();
  SweepServer(const SweepServer&) = delete;
  SweepServer& operator=(const SweepServer&) = delete;

  bool ok() const { return listen_fd_ >= 0; }
  const std::string& error() const { return error_; }

  /// Runs the poll loop until stop() is called (from any thread/signal
  /// context — it writes one byte to a self-pipe).
  void serve();
  void stop();

 private:
  struct Impl;
  Impl* impl_ = nullptr;  ///< built only once the server listens.
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::string error_;
};

}  // namespace vcsteer::net
