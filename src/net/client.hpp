// Client side of the sweep service: a blocking, reconnecting frame channel
// (StoreClient) plus NetJobQueue, which leases a sweep's jobs over
// LEASE/DONE. perfbench's sweepd-lease workload is their one user; no
// bench or run_sweep path talks to a vcsteer-sweepd.
//
// Failure semantics: a failed request is retried through
// reconnect-with-backoff within one ClientOptions::reconnect_window_s per
// outage (covering a sweepd restart). The window opens at the first failure
// and closes at the next success; once it has run out, each request makes
// one connect attempt and fails, so an unreachable daemon costs the window
// once, not once per request. All verbs are safe to resend: GET/PUT are
// idempotent against the fsync-rename cache, and a duplicated LEASE at
// worst double-grants a job. When a request fails, GET reads as kMiss and
// NetJobQueue reports the queue drained.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "exec/cache.hpp"
#include "net/frame.hpp"

namespace vcsteer::net {

struct ClientOptions {
  /// Server address: `unix:/path` or `[tcp:]host:port`.
  std::string connect;
  /// Seconds one outage may spend reconnect-retrying before requests give
  /// up. Covers a server SIGKILL + restart without failing the sweep.
  double reconnect_window_s = 60.0;
};

/// Thread-safe (mutex-serialised) request/reply channel to a vcsteer-sweepd.
class StoreClient {
 public:
  explicit StoreClient(const ClientOptions& opt);
  ~StoreClient();
  StoreClient(const StoreClient&) = delete;
  StoreClient& operator=(const StoreClient&) = delete;

  /// One framed round trip with reconnect-retry. False when the current
  /// outage's reconnect window is exhausted (reply untouched).
  bool request(std::string_view payload, std::string* reply);

  bool ping();
  /// GET: kHit fills result_text. A network failure reads as kMiss — the
  /// caller simulates locally, which preserves byte-identity.
  exec::CacheLookup get(const std::string& key, std::string* result_text);
  bool put(const std::string& key, const std::string& result_text);

  enum class LeaseReply { kJob, kWait, kEmpty, kError };
  LeaseReply lease(std::uint64_t sweep_id, std::size_t njobs,
                   const std::string& client_id, std::size_t* job);
  bool done(std::uint64_t sweep_id, std::size_t job);
  /// Per-client jobs-pulled tallies for the sweep (STATS).
  bool stats(std::uint64_t sweep_id,
             std::map<std::string, std::uint64_t>* pulls);

  struct Counters {
    std::uint64_t gets = 0;
    std::uint64_t puts = 0;
    std::uint64_t leases = 0;
    std::uint64_t reconnects = 0;
  };
  Counters counters() const;

 private:
  bool connect_locked();
  bool send_all_locked(std::string_view bytes);
  bool round_trip_locked(std::string_view framed, std::string* reply);

  ClientOptions opt_;
  mutable std::mutex mutex_;
  int fd_ = -1;
  FrameReader reader_;
  Counters counters_;
  /// End of the current outage's reconnect window; empty while connected.
  std::optional<std::chrono::steady_clock::time_point> outage_deadline_;
};

/// A sweep's jobs leased from a sweepd lease queue: acquire() polls LEASE
/// (sleeping briefly on WAIT) until a job is granted or the sweep is
/// drained; complete() sends DONE.
class NetJobQueue {
 public:
  NetJobQueue(StoreClient* client, std::uint64_t sweep_id, std::size_t njobs,
              std::string client_id)
      : client_(client),
        sweep_id_(sweep_id),
        njobs_(njobs),
        client_id_(std::move(client_id)) {}

  /// Blocks until a job is granted (true) or the sweep is drained — every
  /// job completed, possibly by other clients — or unreachable (false).
  bool acquire(std::size_t* job);
  /// Marks `job` finished.
  void complete(std::size_t job);

 private:
  StoreClient* client_;
  std::uint64_t sweep_id_;
  std::size_t njobs_;
  std::string client_id_;
};

}  // namespace vcsteer::net
