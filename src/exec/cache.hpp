// On-disk result cache for simulation points.
//
// A sweep point is fully determined by (workload profile, machine config,
// scheme spec, simulation budget): the whole pipeline downstream of those
// structs is deterministic. CacheKey serialises every field of all four in a
// fixed order into a canonical text form; its 64-bit hash names the cache
// file and the full text is stored inside it, so a load only hits when the
// canonical forms match exactly — changing any parameter (or adding a field
// to one of the structs) invalidates the entry instead of aliasing it. Two
// keys that collide on the 64-bit hash are kept side by side via
// collision-suffixed filenames probed on lookup and store.
// Doubles are printed with %.17g on both the key and the value side, which
// round-trips IEEE doubles exactly: a cache hit reproduces the RunResult
// bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/config.hpp"
#include "harness/experiment.hpp"
#include "workload/profiles.hpp"

namespace vcsteer::exec {

/// Canonical `name=value` accumulator for cache keys and cached results.
class FieldWriter {
 public:
  FieldWriter& field(std::string_view name, std::string_view value);
  FieldWriter& field(std::string_view name, double value);
  FieldWriter& field(std::string_view name, std::uint64_t value);
  FieldWriter& field(std::string_view name, std::int64_t value);

  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

/// Canonical description of one sweep point. `custom_tag` distinguishes
/// caller-supplied policies that SchemeSpec cannot describe (e.g. "MOD3");
/// it must encode everything that parameterises the custom policy.
/// `source` is the evaluation backend namespace ("sim" or "model",
/// eval::source_name): analytical estimates live under distinct keys and
/// can never alias — or be served in place of — simulation results.
std::string cache_key(const workload::WorkloadProfile& profile,
                      const MachineConfig& machine,
                      const harness::SchemeSpec& spec,
                      const harness::SimBudget& budget,
                      std::string_view custom_tag = {},
                      std::string_view source = "sim");

/// Outcome of a cache probe. kCorrupt means a file for the key existed but
/// could not be decoded (truncated/garbled entry — e.g. a pre-fsync cache
/// written by a machine that lost power); the caller should re-simulate
/// and store() the point, exactly like a miss — the store replaces the
/// garbage.
enum class CacheLookup { kMiss, kHit, kCorrupt };

/// Serialises a RunResult into the canonical `name=value` text stored after
/// the key section of a cache entry (and shipped over the wire by the sweep
/// service). %.17g doubles round-trip exactly.
std::string encode_result(const harness::RunResult& result);

/// Strictly parses encode_result() text. Every field must be present and
/// decode completely — a truncated digit string, trailing garbage, or an
/// empty value fails the decode (it does NOT decode "successfully" via a
/// lenient strtoull/strtod) so corruption is detected, never silently
/// absorbed as a zero.
bool decode_result(const std::string& text, harness::RunResult* out);

/// Abstract key -> RunResult store the sweep runner talks to: the on-disk
/// ResultCache locally, or a net::StoreClient when the sweep leases its jobs
/// from a vcsteer-sweepd (src/net/). Implementations must be safe to call
/// from multiple sweep threads.
class ResultStore {
 public:
  virtual ~ResultStore() = default;
  virtual CacheLookup lookup(const std::string& key,
                             harness::RunResult* out) const = 0;
  virtual void store(const std::string& key,
                     const harness::RunResult& result) const = 0;
};

class ResultCache : public ResultStore {
 public:
  /// Creates `dir` (and parents) if missing. `hash_fn` overrides the
  /// filename hash — production uses hash_seed; tests inject a colliding
  /// hash to pin the collision-chain behaviour.
  explicit ResultCache(std::string dir,
                       std::uint64_t (*hash_fn)(std::string_view) = nullptr);

  /// Probes `key`, filling `out` on kHit. A corrupt entry is left in place
  /// (store() atomically replaces it once the caller re-simulates; deleting
  /// here could race another process that already re-published the point).
  /// Keys whose 64-bit filename hash collides with a different stored key
  /// are probed through collision-suffixed paths, so two colliding keys
  /// coexist instead of alternately evicting each other.
  CacheLookup lookup(const std::string& key,
                     harness::RunResult* out) const override;

  /// Persists `result` under `key`. The entry is written to a tmp file
  /// unique per (process, thread), fsync'd, and renamed into place, so a
  /// writer killed at any instant — including SIGKILL mid-write — either
  /// publishes the complete entry or nothing; concurrent writers of the
  /// same point cannot interleave.
  void store(const std::string& key,
             const harness::RunResult& result) const override;

  /// Raw-text layer the sweep service server runs on: the same probe /
  /// atomic-publish semantics, but the result payload stays an opaque
  /// string (the server never decodes results; clients do).
  CacheLookup lookup_text(const std::string& key, std::string* text) const;
  void store_text(const std::string& key, const std::string& text) const;

  /// Entry paths probed for `key`: the hash-named base path for probe 0,
  /// collision-suffixed siblings after. Exposed for tests.
  std::string path_for(const std::string& key, unsigned probe = 0) const;

  /// Collision-probe chain length: more simultaneous 64-bit hash collisions
  /// than this on one sweep would be astronomically unlikely; the final
  /// slot degrades to the old overwrite behaviour instead of unbounded
  /// directory growth.
  static constexpr unsigned kMaxCollisionProbes = 8;

 private:
  std::uint64_t hash_of(const std::string& key) const;

  std::string dir_;
  std::uint64_t (*hash_fn_)(std::string_view);
};

}  // namespace vcsteer::exec
