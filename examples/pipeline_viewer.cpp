// pipeline_viewer: per-cycle, per-cluster timeline of one simulated trace
// segment, recorded through the TimelineObserver sink (sim/observer.hpp).
//
//   pipeline_viewer [--trace NAME] [--scheme op|one-cluster|ob|rhop|vc|
//                   op-parallel] [--vcs 0-254] [--clusters 1-8]
//                   [--uops 1-10000000] [--skip 0-1000000000]
//                   [--window START:LEN] [--capacity N] [--print N]
//                   [--json FILE] [--quiet] [--list]
//
// A malformed, signed, out-of-range or missing flag value prints the usage
// and exits 2 before any simulation starts.
//
// Runs the first --uops micro-ops of the trace (after --skip) on a
// ClusteredCoreT<TimelineObserver>, prints a text timeline of the recorded
// cycle window — per-cluster IQ/copy-queue occupancy plus every
// architectural event (fetch, steer with the policy's per-cluster scores,
// stall with reason, issue, wakeup, copy request/inject/arrival, commit) —
// and optionally writes the same data as one JSON document.
//
// The observer counts every event whether or not it falls inside the
// display window, and the viewer reconciles those counts against the
// simulator's own SimStats (steers == dispatched_uops, commits ==
// committed_uops, per-reason stalls == the stall counters, ...). A mismatch
// means the observer layer lost an event and the process exits non-zero;
// CI asserts on the "reconciled" field of the JSON (scripts/ci_gates.sh).
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "harness/experiment.hpp"
#include "sim/core.hpp"
#include "stats/table.hpp"
#include "workload/profiles.hpp"
#include "workload/trace.hpp"

namespace {

using namespace vcsteer;

/// The longest segment the viewer materialises (8 bytes per micro-op), and
/// the longest prefix it walks past (about 10 s at 100M micro-ops/s).
constexpr std::uint64_t kMaxUops = 10'000'000;
constexpr std::uint64_t kMaxSkip = 1'000'000'000;
constexpr std::uint64_t kNoLimit = std::numeric_limits<std::uint64_t>::max();

int usage() {
  std::fprintf(
      stderr,
      "usage: pipeline_viewer [--trace NAME] [--scheme op|one-cluster|ob|"
      "rhop|vc|op-parallel]\n"
      "                       [--vcs 0-254] [--clusters 1-%u] "
      "[--uops 1-%" PRIu64 "]\n"
      "                       [--skip 0-%" PRIu64 "] [--window START:LEN] "
      "[--capacity N] [--print N]\n"
      "                       [--json FILE] [--quiet] [--list]\n",
      sim::kMaxClusters, kMaxUops, kMaxSkip);
  return 2;
}

const char* kind_name(sim::TimelineObserver::Kind kind) {
  using Kind = sim::TimelineObserver::Kind;
  switch (kind) {
    case Kind::kFetch: return "fetch";
    case Kind::kSteer: return "steer";
    case Kind::kStall: return "stall";
    case Kind::kIssue: return "issue";
    case Kind::kWakeup: return "wakeup";
    case Kind::kCopyRequest: return "copy_request";
    case Kind::kCopyInject: return "copy_inject";
    case Kind::kCommit: return "commit";
  }
  return "?";
}

void print_event(const sim::TimelineObserver::Event& e) {
  using Kind = sim::TimelineObserver::Kind;
  switch (e.kind) {
    case Kind::kFetch:
      std::printf("    fetch        uop=%u\n", e.uop);
      break;
    case Kind::kSteer: {
      std::printf("    steer        seq=%" PRIu64 " uop=%u -> c%u copies=%"
                  PRIu64,
                  e.seq, e.uop, e.cluster, e.aux);
      if (e.num_scores > 0) {
        std::printf(" scores=[");
        for (std::uint8_t s = 0; s < e.num_scores; ++s) {
          std::printf("%s%.3g", s ? " " : "", e.scores[s]);
        }
        std::printf("]");
      }
      std::printf("\n");
      break;
    }
    case Kind::kStall:
      std::printf("    stall        %s\n", sim::stall_reason_name(e.reason));
      break;
    case Kind::kIssue:
      std::printf("    issue        seq=%" PRIu64 " uop=%u c%u %s done@%"
                  PRIu64 "\n",
                  e.seq, e.uop, e.cluster,
                  (e.flags & sim::TimelineObserver::kFp) ? "fp" : "int",
                  e.aux);
      break;
    case Kind::kWakeup:
      std::printf("    wakeup       tag=%u c%u%s\n", e.tag, e.cluster,
                  (e.flags & sim::TimelineObserver::kCopyArrival)
                      ? " (copy arrival)"
                      : "");
      break;
    case Kind::kCopyRequest:
      std::printf("    copy_request tag=%u c%u -> c%u consumer_seq=%" PRIu64
                  "\n",
                  e.tag, e.from, e.cluster, e.seq);
      break;
    case Kind::kCopyInject:
      std::printf("    copy_inject  tag=%u c%u -> c%u hops=%" PRIu64
                  " arrive@%" PRIu64 "\n",
                  e.tag, e.from, e.cluster, e.seq, e.aux);
      break;
    case Kind::kCommit:
      std::printf("    commit       seq=%" PRIu64 " uop=%u c%u\n", e.seq,
                  e.uop, e.cluster);
      break;
  }
}

/// Counter-by-counter comparison of what the observer saw against what the
/// simulator recorded. Prints every mismatch; returns true when all agree.
bool reconcile(const sim::CountingObserver& counts,
               const sim::SimStats& stats) {
  bool ok = true;
  auto check = [&](const char* what, std::uint64_t observed,
                   std::uint64_t simulated) {
    if (observed == simulated) return;
    ok = false;
    std::fprintf(stderr,
                 "reconciliation FAILED: %s observer=%" PRIu64
                 " simstats=%" PRIu64 "\n",
                 what, observed, simulated);
  };
  using R = sim::StallReason;
  auto by_reason = [&](R r) {
    return counts.stalls_by_reason[static_cast<std::uint32_t>(r)];
  };
  check("cycles", counts.cycles, stats.cycles);
  check("steers vs dispatched_uops", counts.steers, stats.dispatched_uops);
  check("commits vs committed_uops", counts.commits, stats.committed_uops);
  check("copy_requests vs copies_generated", counts.copy_requests,
        stats.copies_generated);
  check("copy_injects vs copies_routed", counts.copy_injects,
        stats.copies_routed);
  check("stall(frontend_empty)", by_reason(R::kFrontendEmpty),
        stats.frontend_empty);
  check("stall(rob)", by_reason(R::kRob), stats.rob_stalls);
  check("stall(lsq)", by_reason(R::kLsq), stats.lsq_stalls);
  check("stall(policy)", by_reason(R::kPolicy), stats.policy_stalls);
  check("stall(alloc)", by_reason(R::kAllocFull), stats.alloc_stalls);
  check("stall(regfile)", by_reason(R::kRegfile), stats.regfile_stalls);
  check("stall(copyq)", by_reason(R::kCopyQueue), stats.copyq_stalls);
  check("stall(copy_bandwidth)", by_reason(R::kCopyBandwidth),
        stats.copy_bandwidth_stalls);
  return ok;
}

void write_json(std::ostream& os, const std::string& trace,
                const std::string& scheme, const MachineConfig& machine,
                std::uint64_t window_start, std::uint64_t window_length,
                bool reconciled, const sim::TimelineObserver& obs,
                const sim::SimStats& stats,
                const std::vector<sim::TimelineObserver::Event>& events) {
  const sim::CountingObserver& c = obs.counts();
  os << "{\"bench\":\"pipeline_viewer\""
     << ",\"trace\":" << stats::json_quote(trace)
     << ",\"scheme\":" << stats::json_quote(scheme)
     << ",\"clusters\":" << machine.num_clusters
     << ",\"window\":{\"start\":" << window_start
     << ",\"length\":" << window_length << "}"
     << ",\"reconciled\":" << (reconciled ? "true" : "false")
     << ",\"dropped_events\":" << obs.dropped()
     << ",\"events\":{\"cycles\":" << c.cycles
     << ",\"fetches\":" << c.fetches << ",\"steers\":" << c.steers
     << ",\"stalls\":" << c.stalls << ",\"issues\":" << c.issues
     << ",\"producer_wakeups\":" << c.producer_wakeups
     << ",\"copy_arrival_wakeups\":" << c.copy_arrival_wakeups
     << ",\"copy_requests\":" << c.copy_requests
     << ",\"copy_injects\":" << c.copy_injects
     << ",\"commits\":" << c.commits << ",\"stalls_by_reason\":{";
  for (std::uint32_t r = 0; r < sim::kNumStallReasons; ++r) {
    if (r) os << ',';
    os << '"' << sim::stall_reason_name(static_cast<sim::StallReason>(r))
       << "\":" << c.stalls_by_reason[r];
  }
  os << "}}";
  char num[64];
  std::snprintf(num, sizeof(num), "%.17g", stats.ipc());
  os << ",\"stats\":{\"cycles\":" << stats.cycles
     << ",\"committed_uops\":" << stats.committed_uops
     << ",\"dispatched_uops\":" << stats.dispatched_uops
     << ",\"copies_generated\":" << stats.copies_generated
     << ",\"copies_routed\":" << stats.copies_routed << ",\"ipc\":" << num
     << "}";
  // The timeline proper: one record per in-window cycle with the occupancy
  // snapshot and the events that fired in it (arrival order).
  os << ",\"timeline\":[";
  std::size_t next_event = 0;
  bool first_cycle = true;
  for (const sim::TimelineObserver::CycleSample& s : obs.cycle_samples()) {
    if (!first_cycle) os << ',';
    first_cycle = false;
    os << "{\"cycle\":" << s.cycle << ",\"iq\":[";
    for (std::uint32_t cl = 0; cl < machine.num_clusters; ++cl) {
      if (cl) os << ',';
      os << s.iq_occupancy[cl];
    }
    os << "],\"copyq\":[";
    for (std::uint32_t cl = 0; cl < machine.num_clusters; ++cl) {
      if (cl) os << ',';
      os << s.copyq_occupancy[cl];
    }
    os << "],\"events\":[";
    bool first_event = true;
    while (next_event < events.size() &&
           events[next_event].cycle <= s.cycle) {
      const sim::TimelineObserver::Event& e = events[next_event];
      ++next_event;
      if (e.cycle < s.cycle) continue;  // before the first retained sample
      if (!first_event) os << ',';
      first_event = false;
      os << "{\"kind\":\"" << kind_name(e.kind) << "\",\"cluster\":"
         << static_cast<unsigned>(e.cluster);
      switch (e.kind) {
        case sim::TimelineObserver::Kind::kSteer:
          os << ",\"seq\":" << e.seq << ",\"uop\":" << e.uop
             << ",\"copies\":" << e.aux;
          if (e.num_scores > 0) {
            os << ",\"scores\":[";
            for (std::uint8_t sc = 0; sc < e.num_scores; ++sc) {
              std::snprintf(num, sizeof(num), "%.9g",
                            static_cast<double>(e.scores[sc]));
              os << (sc ? "," : "") << num;
            }
            os << ']';
          }
          break;
        case sim::TimelineObserver::Kind::kStall:
          os << ",\"reason\":\"" << sim::stall_reason_name(e.reason) << '"';
          break;
        case sim::TimelineObserver::Kind::kIssue:
          os << ",\"seq\":" << e.seq << ",\"uop\":" << e.uop << ",\"fp\":"
             << ((e.flags & sim::TimelineObserver::kFp) ? "true" : "false")
             << ",\"complete_cycle\":" << e.aux;
          break;
        case sim::TimelineObserver::Kind::kWakeup:
          os << ",\"tag\":" << e.tag << ",\"copy_arrival\":"
             << ((e.flags & sim::TimelineObserver::kCopyArrival) ? "true"
                                                                 : "false");
          break;
        case sim::TimelineObserver::Kind::kCopyRequest:
          os << ",\"tag\":" << e.tag << ",\"from\":"
             << static_cast<unsigned>(e.from) << ",\"seq\":" << e.seq;
          break;
        case sim::TimelineObserver::Kind::kCopyInject:
          os << ",\"tag\":" << e.tag << ",\"from\":"
             << static_cast<unsigned>(e.from) << ",\"hops\":" << e.seq
             << ",\"arrive_cycle\":" << e.aux;
          break;
        case sim::TimelineObserver::Kind::kFetch:
        case sim::TimelineObserver::Kind::kCommit:
          os << ",\"uop\":" << e.uop;
          if (e.kind == sim::TimelineObserver::Kind::kCommit) {
            os << ",\"seq\":" << e.seq;
          }
          break;
      }
      os << '}';
    }
    os << "]}";
  }
  os << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace = "164.gzip-1";
  std::string scheme_name = "vc";
  std::uint32_t vcs = 0;
  std::uint32_t clusters = 2;
  std::uint64_t uops = 5000;
  std::uint64_t skip = 0;
  std::uint64_t window_start = 0;
  std::uint64_t window_length = 0;  // 0 = record everything
  std::size_t capacity = 1 << 16;
  std::uint64_t print_cycles = 32;
  std::string json_path;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // The flag's value, or null when the flag comes last.
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Stores the flag's value in `out`; false when it is missing.
    auto text = [&](std::string& out) {
      const char* v = value();
      if (v != nullptr) out = v;
      return v != nullptr;
    };
    // Stores the flag's value in `out`; false unless it is a whole decimal
    // number in [lo, hi].
    auto number = [&]<typename T>(T& out, std::type_identity_t<T> lo,
                                  std::type_identity_t<T> hi) {
      const std::optional<T> n = cli::parse_in_range<T>(value(), lo, hi);
      if (n) out = *n;
      return n.has_value();
    };
    if (arg == "--trace") {
      if (!text(trace)) return usage();
    } else if (arg == "--scheme") {
      if (!text(scheme_name)) return usage();
    } else if (arg == "--vcs") {
      // VC ids stay below isa::SteerHint::kNoVc (255).
      if (!number(vcs, 0, 254)) return usage();
    } else if (arg == "--clusters") {
      if (!number(clusters, 1, sim::kMaxClusters)) return usage();
    } else if (arg == "--uops") {
      if (!number(uops, 1, kMaxUops)) return usage();
    } else if (arg == "--skip") {
      if (!number(skip, 0, kMaxSkip)) return usage();
    } else if (arg == "--window") {
      // START:LEN, with LEN > 0.
      std::string v;
      if (!text(v)) return usage();
      const std::size_t colon = v.find(':');
      if (colon == std::string::npos) return usage();
      const auto start = cli::parse_in_range<std::uint64_t>(
          v.substr(0, colon).c_str(), 0, kNoLimit);
      const auto length = cli::parse_in_range<std::uint64_t>(
          v.c_str() + colon + 1, 1, kNoLimit);
      if (!start || !length) return usage();
      window_start = *start;
      window_length = *length;
    } else if (arg == "--capacity") {
      if (!number(capacity, 1, std::numeric_limits<std::size_t>::max())) {
        return usage();
      }
    } else if (arg == "--print") {
      if (!number(print_cycles, 0, kNoLimit)) return usage();
    } else if (arg == "--json") {
      if (!text(json_path)) return usage();
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--list") {
      for (const auto& p : workload::all_profiles()) {
        std::printf("%-16s %s\n", p.name.c_str(), p.is_fp ? "FP" : "INT");
      }
      return 0;
    } else {
      return usage();
    }
  }

  const workload::WorkloadProfile* profile = workload::find_profile(trace);
  if (profile == nullptr) {
    std::fprintf(stderr, "unknown trace '%s' (try --list)\n", trace.c_str());
    return 1;
  }
  const auto scheme = cli::parse_scheme(scheme_name);
  if (!scheme) return usage();

  MachineConfig machine = MachineConfig::two_cluster();
  machine.num_clusters = clusters;

  workload::GeneratedWorkload wl = workload::generate(*profile);
  const harness::SchemeSpec spec{*scheme, vcs};
  harness::annotate_for_scheme(wl.program, spec, machine);
  const auto policy = harness::policy_for_scheme(spec, machine);

  workload::TraceSource source(wl);
  if (skip > 0) source.skip(skip);
  const std::vector<workload::TraceEntry> segment = source.take(uops);

  sim::ClusteredCoreT<sim::TimelineObserver> core(machine, wl.program);
  core.observer().set_window(window_start, window_length);
  core.observer().set_capacity(capacity);
  const sim::SimStats stats = core.run(segment, *policy);

  const sim::TimelineObserver& obs = core.observer();
  const std::vector<sim::TimelineObserver::Event> events = obs.events();
  const bool reconciled = reconcile(obs.counts(), stats);
  const std::string scheme_label = spec.label(machine);

  if (!quiet) {
    std::printf("pipeline_viewer: %s scheme=%s %s\n", trace.c_str(),
                scheme_label.c_str(), machine.summary().c_str());
    std::printf("segment: %" PRIu64 " uops (skip %" PRIu64 ") -> %" PRIu64
                " cycles, IPC %.3f\n",
                uops, skip, stats.cycles, stats.ipc());
    if (window_length != 0) {
      std::printf("window: cycles [%" PRIu64 ", %" PRIu64 ")\n", window_start,
                  window_start + window_length);
    }
    if (obs.dropped() > 0) {
      std::printf("note: ring overflow dropped %" PRIu64
                  " oldest in-window events (raise --capacity)\n",
                  obs.dropped());
    }
    std::size_t next_event = 0;
    std::uint64_t printed = 0;
    for (const sim::TimelineObserver::CycleSample& s : obs.cycle_samples()) {
      if (printed >= print_cycles) break;
      ++printed;
      std::printf("cycle %-8" PRIu64 " iq=[", s.cycle);
      for (std::uint32_t c = 0; c < clusters; ++c) {
        std::printf("%s%u", c ? " " : "", s.iq_occupancy[c]);
      }
      std::printf("] copyq=[");
      for (std::uint32_t c = 0; c < clusters; ++c) {
        std::printf("%s%u", c ? " " : "", s.copyq_occupancy[c]);
      }
      std::printf("]\n");
      while (next_event < events.size() &&
             events[next_event].cycle <= s.cycle) {
        if (events[next_event].cycle == s.cycle) {
          print_event(events[next_event]);
        }
        ++next_event;
      }
    }
    if (printed < obs.cycle_samples().size()) {
      std::printf("... %zu more recorded cycles (raise --print, or use "
                  "--json for all of them)\n",
                  obs.cycle_samples().size() - printed);
    }
    const sim::CountingObserver& c = obs.counts();
    std::printf("events: %" PRIu64 " fetches, %" PRIu64 " steers, %" PRIu64
                " stalls, %" PRIu64 " issues, %" PRIu64 "+%" PRIu64
                " wakeups (producer+copy), %" PRIu64 " copy requests, %"
                PRIu64 " injects, %" PRIu64 " commits\n",
                c.fetches, c.steers, c.stalls, c.issues, c.producer_wakeups,
                c.copy_arrival_wakeups, c.copy_requests, c.copy_injects,
                c.commits);
    std::printf("reconciliation vs SimStats: %s\n",
                reconciled ? "OK" : "FAILED");
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (os) {
      write_json(os, trace, scheme_label, machine, window_start,
                 window_length, reconciled, obs, stats, events);
      os.flush();
    }
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  return reconciled ? 0 : 1;
}
