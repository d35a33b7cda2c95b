// Shared command-line driver for the figure/ablation benches.
//
// Every bench used to hand-roll the same flag loop; they now share one
// parser and one output path:
//
//   bench [--jobs N] [--smoke|--quick] [--seed S] [--prune-model K]
//         [--json FILE] [--summary-json FILE] [--csv] [--progress]
//
//   --jobs N       worker threads for the sweep (default: all cores).
//                  Results are bit-identical for every N (see src/exec/).
//   --smoke        smoke budget + reduced trace set (alias: --quick).
//   --seed S       extra salt mixed into every workload seed.
//   --progress     per-job heartbeat lines on stderr (done/total, elapsed,
//                  ETA) for long sweeps, routed through common/log.hpp at
//                  info level. VCSTEER_LOG=info|debug in the environment
//                  enables the same verbosity without the flag
//                  (error|warn quieten it).
//   --prune-model K
//                  two-stage pruned search: score every grid point with the
//                  analytical critical-path model (src/model/), then simulate
//                  only the top-K (machine, scheme) configs. The simulated
//                  frontier is byte-identical to an unpruned run; the rest of
//                  the grid carries model estimates tagged source == "model".
//   --json FILE    write raw results + all tables as one JSON document.
//   --summary-json FILE
//                  machine-readable run summary (sweep counters, wall time,
//                  parsed-option echo) for CI gates — see exec::RunSummary.
//   --csv          print tables as CSV instead of aligned text.
//
// All of the above — the parse loop, the generated --help text, and the
// "options" echo in the --summary-json — are driven by ONE declarative
// table (OptionSpec / option_table() below). Adding a flag means adding one
// table entry; unknown flags are a hard error, never pass-through.
//
// Usage pattern:
//   bench::Options opt = bench::parse_args(argc, argv, "fig5_twocluster");
//   bench::Output out(opt);
//   exec::SweepResult sweep = out.run(grid);  // the whole sweep, in-process
//   out.add(derived_table);     // prints (text or CSV) + into the JSON
//   return out.finish();        // writes --json/--summary-json files
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "exec/result_sink.hpp"
#include "exec/sweep.hpp"
#include "harness/experiment.hpp"
#include "workload/profiles.hpp"

namespace vcsteer::bench {

struct Options {
  std::string bench_name;
  unsigned jobs = exec::default_jobs();
  bool smoke = false;
  bool csv = false;
  bool progress = false;  // --progress: per-job heartbeat on stderr
  std::uint64_t seed = 0;
  std::size_t prune_model = 0;  // --prune-model K: top-K configs simulated
  std::string json_path;
  std::string summary_json_path;

  harness::SimBudget budget() const {
    return smoke ? harness::SimBudget::smoke() : harness::SimBudget{};
  }

  /// The traces a figure sweeps: the reduced set with --smoke, else all 40.
  std::span<const workload::WorkloadProfile> profiles() const {
    return smoke ? workload::smoke_profiles() : workload::all_profiles();
  }

  /// Sweep options with a stderr dot per finished (trace, machine) job —
  /// plus, with --progress (or VCSTEER_LOG=info), a heartbeat line with
  /// done/total, elapsed seconds and a linear ETA.
  exec::SweepOptions sweep_options() const {
    exec::SweepOptions opt;
    opt.jobs = jobs;
    opt.seed_salt = seed;
    opt.prune_top_k = prune_model;
    opt.progress = [t0 = std::chrono::steady_clock::now()](std::size_t done,
                                                           std::size_t total) {
      std::fputc('.', stderr);
      if (done == total) std::fputc('\n', stderr);
      // The heartbeat goes through the leveled logger: --progress raised
      // the level to info in parse_args, and VCSTEER_LOG can do the same
      // (or silence it) from the environment.
      if (static_cast<int>(log_level()) >=
          static_cast<int>(LogLevel::kInfo)) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        const double eta =
            done > 0 ? elapsed * static_cast<double>(total - done) /
                           static_cast<double>(done)
                     : 0.0;
        VCSTEER_LOG_INFO("progress %zu/%zu jobs, %.1fs elapsed, ~%.1fs left",
                         done, total, elapsed, eta);
      }
    };
    return opt;
  }
};

/// A parse error: one message, a --help hint, exit 2. The option table's
/// apply hooks use this too, so every bad invocation fails the same way.
[[noreturn]] inline void parse_fail(const Options& opt,
                                    const std::string& msg) {
  std::fprintf(stderr, "%s: %s\n", opt.bench_name.c_str(), msg.c_str());
  std::fprintf(stderr, "%s: run with --help for the flag list\n",
               opt.bench_name.c_str());
  std::exit(2);
}

/// The value of integer flag `flag`: unsigned decimal digits only, within
/// 64 bits. An empty, signed, non-numeric or trailing-garbage value is a
/// parse error, never a half-parsed number.
inline std::uint64_t parse_uint(const Options& opt, const char* flag,
                                const char* v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*v)) || *end != '\0' ||
      errno == ERANGE) {
    parse_fail(opt, std::string(flag) +
                        " expects an unsigned integer, got '" + v + "'");
  }
  return n;
}

/// One command-line flag of the shared bench driver. A single table of
/// these (option_table()) drives everything that used to be maintained in
/// triplicate: the parse loop, the generated --help text, and the "options"
/// echo in the --summary-json. `apply` and `echo` are plain function
/// pointers so the table itself stays a static literal.
struct OptionSpec {
  const char* name;   ///< primary spelling, e.g. "--jobs"
  const char* alias;  ///< alternate spelling or nullptr, e.g. "--quick"
  const char* arg;    ///< value metavar, or nullptr for boolean flags
  const char* help;   ///< one-line description for --help
  /// Parses the consumed value into `opt` (`value` is nullptr for boolean
  /// flags). Rejects bad values via parse_fail().
  void (*apply)(Options& opt, const char* value);
  /// Renders the *final* value for the summary echo ("true"/"false" for
  /// flags, "" for unset strings) — a summary is self-describing about the
  /// invocation that produced it.
  std::string (*echo)(const Options& opt);
};

inline const std::vector<OptionSpec>& option_table() {
  static const std::vector<OptionSpec> specs = {
      {"--jobs", nullptr, "N",
       "worker threads for the sweep (default: all cores); results are "
       "bit-identical for every N",
       [](Options& o, const char* v) {
         // Clamp: 0 means serial, and there is no point spawning more
         // workers than any realistic grid has jobs.
         o.jobs = static_cast<unsigned>(std::clamp<std::uint64_t>(
             parse_uint(o, "--jobs", v), 1, 512));
       },
       [](const Options& o) { return std::to_string(o.jobs); }},
      {"--smoke", "--quick", nullptr, "smoke budget + reduced trace set",
       [](Options& o, const char*) { o.smoke = true; },
       [](const Options& o) -> std::string {
         return o.smoke ? "true" : "false";
       }},
      {"--seed", nullptr, "S", "extra salt mixed into every workload seed",
       [](Options& o, const char* v) { o.seed = parse_uint(o, "--seed", v); },
       [](const Options& o) { return std::to_string(o.seed); }},
      {"--prune-model", nullptr, "K",
       "two-stage pruned search: model-score every point, simulate only the "
       "top-K (machine, scheme) configs",
       [](Options& o, const char* v) {
         const std::uint64_t k = parse_uint(o, "--prune-model", v);
         if (k < 1) {
           parse_fail(o, "--prune-model expects a frontier size K >= 1, "
                         "got '" +
                             std::string(v) + "'");
         }
         o.prune_model = static_cast<std::size_t>(k);
       },
       [](const Options& o) { return std::to_string(o.prune_model); }},
      {"--json", nullptr, "FILE",
       "write raw results + all tables as one JSON document",
       [](Options& o, const char* v) { o.json_path = v; },
       [](const Options& o) { return o.json_path; }},
      {"--summary-json", nullptr, "FILE",
       "machine-readable run summary for CI gates (exec::RunSummary)",
       [](Options& o, const char* v) { o.summary_json_path = v; },
       [](const Options& o) { return o.summary_json_path; }},
      {"--csv", nullptr, nullptr,
       "print tables as CSV instead of aligned text",
       [](Options& o, const char*) { o.csv = true; },
       [](const Options& o) -> std::string {
         return o.csv ? "true" : "false";
       }},
      {"--progress", nullptr, nullptr,
       "per-job heartbeat lines on stderr (done/total, elapsed, ETA)",
       [](Options& o, const char*) {
         o.progress = true;
         // The heartbeat rides the info level; never lower an env-raised
         // one.
         if (static_cast<int>(log_level()) <
             static_cast<int>(LogLevel::kInfo)) {
           set_log_level(LogLevel::kInfo);
         }
       },
       [](const Options& o) -> std::string {
         return o.progress ? "true" : "false";
       }},
  };
  return specs;
}

/// --help text, generated from the option table (exit 0); also the epitaph
/// of a bad invocation (exit 2).
[[noreturn]] inline void usage(const std::string& bench_name, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out, "usage: %s [flags]\n\nflags:\n", bench_name.c_str());
  for (const OptionSpec& s : option_table()) {
    std::string head = s.name;
    if (s.arg != nullptr) {
      head += ' ';
      head += s.arg;
    }
    if (s.alias != nullptr) {
      head += " (alias ";
      head += s.alias;
      head += ')';
    }
    std::fprintf(out, "  %-22s %s\n", head.c_str(), s.help);
  }
  std::exit(code);
}

/// The "options" section of the --summary-json: every table entry's final
/// value under its flag name without the leading dashes, in table order.
inline std::vector<std::pair<std::string, std::string>> echo_options(
    const Options& opt) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const OptionSpec& s : option_table()) {
    out.emplace_back(s.name + 2, s.echo(opt));
  }
  return out;
}

inline Options parse_args(int argc, char** argv, std::string bench_name) {
  Options opt;
  opt.bench_name = std::move(bench_name);
  init_log_from_env();  // VCSTEER_LOG override applies to every bench
  const std::vector<OptionSpec>& specs = option_table();
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(opt.bench_name, 0);
    }
    const OptionSpec* spec = nullptr;
    for (const OptionSpec& s : specs) {
      if (std::strcmp(arg, s.name) == 0 ||
          (s.alias != nullptr && std::strcmp(arg, s.alias) == 0)) {
        spec = &s;
        break;
      }
    }
    if (spec == nullptr) {
      parse_fail(opt, std::string("unknown flag ") + arg);
    }
    const char* value = nullptr;
    if (spec->arg != nullptr) {
      if (i + 1 >= argc) {
        parse_fail(opt, std::string(spec->name) + " needs a value");
      }
      value = argv[++i];
    }
    spec->apply(opt, value);
  }
  return opt;
}

/// Runs the sweep, prints tables as they are added (text or CSV per
/// --csv), accumulates results into a ResultSink and counters into one
/// RunSummary, and writes the --json and --summary-json files on finish().
class Output {
 public:
  explicit Output(const Options& opt)
      : opt_(opt),
        sink_(opt.bench_name),
        start_(std::chrono::steady_clock::now()) {}

  /// The whole execution phase of a bench: its points go to the sink and
  /// the summary's result totals, its counters into the summary's.
  exec::SweepResult run(const exec::SweepGrid& grid) {
    exec::SweepResult sweep = exec::run_sweep(grid, opt_.sweep_options());
    sink_.add_sweep(sweep);
    summary_.sweep += sweep;
    summary_.points += sweep.num_points();
    for (const harness::RunResult& r : sweep.points()) {
      summary_.cycles += r.cycles;
    }
    return sweep;
  }

  void add(const stats::Table& table) {
    if (first_) {
      first_ = false;
    } else {
      std::cout << '\n';
    }
    std::cout << (opt_.csv ? table.to_csv() : table.to_text());
    sink_.add_table(table);
  }

  /// Writes the --json and --summary-json files that were asked for; 1 when
  /// either cannot be written, else 0.
  int finish() {
    bool ok = true;
    if (!opt_.json_path.empty()) {
      ok = write_file(opt_.json_path,
                      [&](std::ostream& os) { sink_.write_json(os); });
    }
    // After the --json outcome is known, so the summary's ok never
    // contradicts the exit code.
    if (!opt_.summary_json_path.empty()) {
      summary_.bench = opt_.bench_name;
      summary_.ok = ok;
      summary_.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count();
      summary_.options = echo_options(opt_);
      ok = write_file(opt_.summary_json_path, [&](std::ostream& os) {
             exec::write_summary_json(os, summary_);
           }) && ok;
    }
    return ok ? 0 : 1;
  }

 private:
  /// Creates or truncates `path` and fills it with `write`; false, after
  /// saying so on stderr, when the file cannot be opened or written.
  template <typename Write>
  bool write_file(const std::string& path, Write&& write) const {
    std::ofstream os(path);
    if (os) {
      write(os);
      os.flush();
    }
    if (!os) {
      std::fprintf(stderr, "%s: cannot write %s\n", opt_.bench_name.c_str(),
                   path.c_str());
    }
    return static_cast<bool>(os);
  }

  const Options& opt_;
  exec::ResultSink sink_;
  std::chrono::steady_clock::time_point start_;
  exec::RunSummary summary_;
  bool first_ = true;
};

}  // namespace vcsteer::bench
