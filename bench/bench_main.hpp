// Shared command-line driver for the figure/ablation benches.
//
// Every bench used to hand-roll the same flag loop; they now share one
// parser and one output path:
//
//   bench [--jobs N] [--smoke|--quick] [--seed S] [--shard I/N] [--launch N]
//         [--connect ADDR] [--serve ADDR] [--client-id ID]
//         [--cache-dir DIR] [--json FILE] [--summary-json FILE] [--csv]
//
//   --jobs N       worker threads for the sweep (default: all cores).
//                  Results are bit-identical for every N (see src/exec/).
//   --smoke        smoke budget + reduced trace set (alias: --quick).
//   --seed S       extra salt mixed into every workload seed.
//   --shard I/N    run only this process's 1/N of the job list (0 <= I < N).
//                  Launch N processes sharing --cache-dir to split a sweep
//                  across them, then one unsharded run to assemble the
//                  tables from the warm cache. Sharded runs skip the
//                  derived tables (their grid is incomplete by design).
//   --launch N     own that whole lifecycle instead: re-exec this binary as
//                  N shard workers (--shard i/N --cache-dir ...), stream
//                  their progress, retry a crashed/killed shard (bounded),
//                  then run the in-process assembly pass — which is a pure
//                  cache read when every shard succeeded. --jobs becomes
//                  the total thread budget, split across the workers.
//   --connect ADDR lease jobs from a vcsteer-sweepd at ADDR (unix:/path or
//                  [tcp:]host:port) instead of static sharding: this process
//                  pulls (trace, machine) jobs until the sweep drains, then
//                  assembles the full result set from the server's store, so
//                  every client writes byte-identical --json output. Results
//                  live server-side: no --cache-dir, --shard, or --launch.
//   --serve ADDR   own the service lifecycle: spawn a vcsteer-sweepd sibling
//                  binary on ADDR (over --cache-dir), optionally spawn
//                  --launch N re-exec'd `--connect` workers, pull jobs
//                  itself, and shut the daemon down at the end. The summary
//                  JSON's `net.workers` carries the per-worker jobs-pulled
//                  tallies from the server.
//   --client-id ID this worker's name in lease stats (default: wpid<pid>).
//   --cache-dir D  on-disk result cache; warm re-runs skip simulation.
//   --progress     per-job heartbeat lines on stderr (done/total, elapsed,
//                  ETA) for long in-process sweeps, routed through
//                  common/log.hpp at info level. VCSTEER_LOG=info|debug in
//                  the environment enables the same verbosity without the
//                  flag (error|warn quieten it).
//   --prune-model K
//                  two-stage pruned search: score every grid point with the
//                  analytical critical-path model (src/model/), then simulate
//                  only the top-K (machine, scheme) configs. The simulated
//                  frontier is byte-identical to an unpruned run; the rest of
//                  the grid carries model estimates tagged source == "model".
//                  Needs the whole grid in one process, so it cannot be
//                  combined with --shard/--launch/--connect/--serve.
//   --json FILE    write raw results + all tables as one JSON document.
//   --summary-json FILE
//                  machine-readable run summary (sweep counters, wall time,
//                  per-shard status, parsed-option echo) for CI gates — see
//                  exec::RunSummary.
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
//   exec::SweepResult sweep = out.run(grid);  // --launch workers + sweep
//   out.add(derived_table);     // prints (text or CSV) + into the JSON
//   return out.finish();        // writes --json/--summary-json files
#pragma once

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "exec/launcher.hpp"
#include "exec/result_sink.hpp"
#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "harness/experiment.hpp"
#include "net/client.hpp"

namespace vcsteer::bench {

/// Retries per shard worker beyond its first attempt (--launch).
inline constexpr unsigned kLaunchMaxRetries = 2;

struct Options {
  std::string bench_name;
  std::string exe;  // argv[0]; what --launch re-execs
  unsigned jobs = exec::ThreadPool::default_jobs();
  bool smoke = false;
  bool csv = false;
  bool progress = false;  // --progress: per-job heartbeat on stderr
  std::uint64_t seed = 0;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  unsigned launch = 0;  // >= 2: spawn that many shard workers first
  std::string cache_dir;
  std::string connect;    // --connect: lease jobs from this sweepd address
  std::string serve;      // --serve: spawn a sweepd on this address first
  std::string client_id;  // --client-id: name in server lease stats
  std::size_t prune_model = 0;  // --prune-model K: top-K configs simulated
  std::string json_path;
  std::string summary_json_path;

  harness::SimBudget budget() const {
    return smoke ? harness::SimBudget::smoke() : harness::SimBudget{};
  }

  /// Derived tables need the whole grid; a shard only computes its slice.
  bool tables_enabled() const { return shard_count == 1; }

  /// Command line for shard worker `i` of a --launch run: the bench's own
  /// sweep-shaping flags plus either the static shard assignment or — under
  /// --serve — the service connection (workers lease jobs instead of owning
  /// a fixed slice). Output flags (--json, --summary-json, --csv) stay with
  /// the parent — workers publish results only through the shared cache or
  /// the server's store. --jobs is the run's *total* thread budget, split
  /// across the workers: forwarding it verbatim would oversubscribe the
  /// machine N-fold under the all-cores default.
  std::vector<std::string> worker_argv(unsigned i) const {
    const unsigned worker_jobs = std::max(1u, jobs / std::max(launch, 1u));
    std::vector<std::string> argv = {exe};
    if (!serve.empty()) {
      argv.insert(argv.end(),
                  {"--connect", serve, "--client-id", "w" + std::to_string(i)});
    } else {
      argv.insert(argv.end(),
                  {"--shard",
                   std::to_string(i) + "/" + std::to_string(launch),
                   "--cache-dir", cache_dir});
    }
    argv.insert(argv.end(), {"--jobs", std::to_string(worker_jobs)});
    if (smoke) argv.push_back("--smoke");
    if (seed != 0) {
      argv.push_back("--seed");
      argv.push_back(std::to_string(seed));
    }
    return argv;
  }

  /// The id this process leases under; --client-id pins it for tests.
  std::string effective_client_id() const {
    return client_id.empty() ? "wpid" + std::to_string(::getpid())
                             : client_id;
  }

  /// Path of the vcsteer-sweepd binary --serve spawns: a sibling of the
  /// bench executable (both live in the build directory).
  std::string sweepd_path() const {
    const std::size_t slash = exe.rfind('/');
    return slash == std::string::npos ? "vcsteer-sweepd"
                                      : exe.substr(0, slash + 1) + "vcsteer-sweepd";
  }

  /// Test-only crash injection for the launcher's recovery path: when this
  /// process is shard VCSTEER_TEST_CRASH_SHARD of a multi-shard run, it
  /// SIGKILLs itself after VCSTEER_TEST_CRASH_AFTER (default 1) finished
  /// jobs — on its first launch attempt only, unless
  /// VCSTEER_TEST_CRASH_ALWAYS is set. Returns 0 when inactive.
  std::size_t crash_after_jobs() const {
    const char* shard_env = std::getenv("VCSTEER_TEST_CRASH_SHARD");
    if (shard_env == nullptr || shard_count <= 1) return 0;
    if (std::strtoul(shard_env, nullptr, 10) != shard_index) return 0;
    if (std::getenv("VCSTEER_TEST_CRASH_ALWAYS") == nullptr) {
      const char* attempt = std::getenv("VCSTEER_LAUNCH_ATTEMPT");
      if (attempt != nullptr && std::strtoul(attempt, nullptr, 10) > 1) {
        return 0;  // the retry is allowed to succeed
      }
    }
    const char* after = std::getenv("VCSTEER_TEST_CRASH_AFTER");
    const unsigned long jobs_before_crash =
        after != nullptr ? std::strtoul(after, nullptr, 10) : 1;
    return std::max<std::size_t>(jobs_before_crash, 1);
  }

  /// Sweep options with a stderr dot per finished (trace, machine) job —
  /// plus, with --progress (or VCSTEER_LOG=info), a heartbeat line with
  /// done/total, elapsed seconds and a linear ETA.
  exec::SweepOptions sweep_options() const {
    exec::SweepOptions opt;
    opt.jobs = jobs;
    opt.cache_dir = cache_dir;
    opt.seed_salt = seed;
    opt.shard_index = shard_index;
    opt.shard_count = shard_count;
    opt.prune_top_k = prune_model;
    opt.progress = [crash_after = crash_after_jobs(),
                    t0 = std::chrono::steady_clock::now()](std::size_t done,
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
      if (crash_after != 0 && done >= crash_after) {
        std::fflush(nullptr);
        std::raise(SIGKILL);
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
      {"--shard", nullptr, "I/N",
       "run only this process's 1/N of the job list (0 <= I < N); requires "
       "--cache-dir",
       [](Options& o, const char* v) {
         char* end = nullptr;
         const unsigned long index = std::strtoul(v, &end, 10);
         unsigned long count = 0;
         if (end != v && *end == '/') {
           const char* count_str = end + 1;
           count = std::strtoul(count_str, &end, 10);
           if (end == count_str) count = 0;
         }
         if (count == 0 || index >= count || *end != '\0') {
           parse_fail(o, std::string("--shard expects I/N with 0 <= I < N, "
                                     "got '") +
                             v + "'");
         }
         o.shard_index = static_cast<std::uint32_t>(index);
         o.shard_count = static_cast<std::uint32_t>(count);
       },
       [](const Options& o) {
         return std::to_string(o.shard_index) + "/" +
                std::to_string(o.shard_count);
       }},
      {"--launch", nullptr, "N",
       "re-exec this binary as N shard workers over --cache-dir, then run "
       "the assembly pass",
       [](Options& o, const char* v) {
         const std::uint64_t n = parse_uint(o, "--launch", v);
         // 1 worker would just be the plain run with extra process overhead.
         if (n < 2 || n > 512) {
           parse_fail(o, "--launch expects 2..512 workers, got " +
                             std::string(v));
         }
         o.launch = static_cast<unsigned>(n);
       },
       [](const Options& o) { return std::to_string(o.launch); }},
      {"--cache-dir", nullptr, "DIR",
       "on-disk result cache; warm re-runs skip simulation",
       [](Options& o, const char* v) { o.cache_dir = v; },
       [](const Options& o) { return o.cache_dir; }},
      {"--connect", nullptr, "ADDR",
       "lease jobs from a vcsteer-sweepd at ADDR (unix:/path or host:port)",
       [](Options& o, const char* v) { o.connect = v; },
       [](const Options& o) { return o.connect; }},
      {"--serve", nullptr, "ADDR",
       "spawn a vcsteer-sweepd on ADDR, lease jobs from it, shut it down "
       "at the end",
       [](Options& o, const char* v) { o.serve = v; },
       [](const Options& o) { return o.serve; }},
      {"--client-id", nullptr, "ID",
       "this worker's name in server lease stats (default: wpid<pid>)",
       [](Options& o, const char* v) { o.client_id = v; },
       [](const Options& o) { return o.client_id; }},
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
  opt.exe = argc > 0 ? argv[0] : "";
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
  // Cross-flag validation. A sharded run produces no tables; without the
  // shared cache its results would be simulated and then thrown away.
  if (opt.shard_count > 1 && opt.cache_dir.empty()) {
    parse_fail(opt, "--shard requires --cache-dir (shards publish their "
                    "results through the shared cache)");
  }
  if (opt.launch >= 2) {
    if (opt.cache_dir.empty()) {
      parse_fail(opt, "--launch requires --cache-dir (workers hand results "
                      "to the assembly run through it)");
    }
    if (opt.shard_count > 1) {
      parse_fail(opt, "--launch spawns the shards itself; it cannot be "
                      "combined with --shard");
    }
  }
  if (!opt.connect.empty() && !opt.serve.empty()) {
    parse_fail(opt, "--connect and --serve are mutually exclusive");
  }
  if (!opt.connect.empty() &&
      (opt.shard_count > 1 || opt.launch >= 2 || !opt.cache_dir.empty())) {
    parse_fail(opt, "--connect replaces --shard/--launch/--cache-dir (jobs "
                    "and results live on the server)");
  }
  if (!opt.serve.empty()) {
    if (opt.cache_dir.empty()) {
      parse_fail(opt, "--serve requires --cache-dir (the daemon's durable "
                      "result store)");
    }
    if (opt.shard_count > 1) {
      parse_fail(opt, "--serve cannot be combined with --shard");
    }
  }
  // The frontier ranking needs every grid point's model score in one
  // process; distributed modes see only a slice.
  if (opt.prune_model > 0 &&
      (opt.shard_count > 1 || opt.launch >= 2 || !opt.connect.empty() ||
       !opt.serve.empty())) {
    parse_fail(opt, "--prune-model needs the whole grid in one process; it "
                    "cannot be combined with --shard/--launch/--connect/"
                    "--serve");
  }
  return opt;
}

/// A spawned vcsteer-sweepd under --serve: fork/exec'd on construction via
/// start(), SIGTERM'd and reaped on stop(). The daemon must already be
/// accepting connections when start() returns (its listen socket is bound
/// inside the SweepServer constructor, so one successful PING suffices).
class ServerProcess {
 public:
  ~ServerProcess() { stop(); }

  bool start(const Options& opt) {
    const std::string path = opt.sweepd_path();
    std::vector<std::string> argv = {path,        "--listen", opt.serve,
                                     "--cache-dir", opt.cache_dir};
    pid_ = ::fork();
    if (pid_ < 0) {
      std::perror("fork");
      return false;
    }
    if (pid_ == 0) {
      std::vector<char*> cargv;
      cargv.reserve(argv.size() + 1);
      for (std::string& a : argv) cargv.push_back(a.data());
      cargv.push_back(nullptr);
      ::execv(path.c_str(), cargv.data());
      std::fprintf(stderr, "exec %s failed: %s\n", path.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
    // Readiness probe: the daemon binds before serving, so the first PING
    // that gets through (the client reconnect-retries) proves liveness.
    net::ClientOptions co;
    co.connect = opt.serve;
    co.reconnect_window_s = 10;
    net::StoreClient probe(co);
    if (!probe.ping()) {
      std::fprintf(stderr, "vcsteer-sweepd on %s never answered PING\n",
                   opt.serve.c_str());
      stop();
      return false;
    }
    return true;
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

/// Runs the sweep (spawning/monitoring --launch shard workers first when
/// requested), prints tables as they are added (text or CSV per --csv),
/// accumulates everything into a ResultSink, and writes the --json and
/// --summary-json files on finish().
class Output {
 public:
  explicit Output(const Options& opt)
      : opt_(opt),
        sink_(opt.bench_name),
        start_(std::chrono::steady_clock::now()) {}

  /// The whole execution phase of a bench. With --launch N this first runs
  /// the shard workers to completion (with retries); a shard that fails
  /// persistently writes the --summary-json (ok:false) and exits non-zero
  /// without an assembly pass. Then the in-process sweep runs — the
  /// assembly pass in launch mode, the only pass otherwise.
  exec::SweepResult run(const exec::SweepGrid& grid) {
    if (!opt_.serve.empty() || !opt_.connect.empty()) {
      return run_networked(grid);
    }
    if (opt_.launch >= 2) {
      launch_report_ = run_workers();
      if (!launch_report_->ok) {
        std::fprintf(stderr,
                     "%s: %zu of %u shard worker(s) failed after %u attempts"
                     " each; skipping the assembly run\n",
                     opt_.bench_name.c_str(), launch_report_->failed_workers(),
                     opt_.launch, 1 + kLaunchMaxRetries);
        finish_summary(/*ok=*/false);
        std::exit(1);
      }
    }
    exec::SweepResult sweep = exec::run_sweep(grid, opt_.sweep_options());
    record(sweep);
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

  int finish() {
    int rc = 0;
    if (!opt_.json_path.empty()) {
      std::ofstream os(opt_.json_path);
      if (os) {
        sink_.write_json(os);
        os.flush();
      }
      if (!os) {
        std::fprintf(stderr, "%s: cannot write %s\n", opt_.bench_name.c_str(),
                     opt_.json_path.c_str());
        rc = 1;
      }
    }
    // After the --json outcome is known, so the summary's ok never
    // contradicts the exit code.
    finish_summary(/*ok=*/rc == 0);
    return rc;
  }

 private:
  /// The sweep-service execution phase, both roles:
  ///   --serve:   spawn the daemon (and optionally --launch N --connect
  ///              workers), lease jobs alongside them, shut the daemon down.
  ///   --connect: lease jobs from an already-running daemon.
  /// Either way the run ends with an assembly pass that reads the complete
  /// grid back from the server's store, so every participant emits
  /// byte-identical results JSON — the same shape as a local --jobs 1 run.
  exec::SweepResult run_networked(const exec::SweepGrid& grid) {
    net_.enabled = true;
    net_.role = opt_.serve.empty() ? "connect" : "serve";
    net_.server = opt_.serve.empty() ? opt_.connect : opt_.serve;

    if (!opt_.serve.empty()) {
      if (!server_.start(opt_)) {
        finish_summary(/*ok=*/false);
        std::exit(1);
      }
      if (opt_.launch >= 2) {
        launch_report_ = run_workers();
        if (!launch_report_->ok) {
          std::fprintf(stderr,
                       "%s: %zu of %u service worker(s) failed after %u "
                       "attempts each; skipping the assembly run\n",
                       opt_.bench_name.c_str(),
                       launch_report_->failed_workers(), opt_.launch,
                       1 + kLaunchMaxRetries);
          finish_summary(/*ok=*/false);
          server_.stop();
          std::exit(1);
        }
      }
    }

    net::ClientOptions co;
    co.connect = net_.server;
    net::StoreClient client(co);
    net::NetResultStore store(&client);
    const std::uint64_t sweep_id = exec::grid_fingerprint(grid, opt_.seed);
    const std::size_t njobs = grid.profiles.size() * grid.machines.size();
    net::NetJobQueue queue(&client, sweep_id, njobs,
                           opt_.effective_client_id());

    // Pull pass: lease and simulate jobs until the whole sweep drains
    // (jobs other workers pulled are theirs; expired leases come to us).
    exec::SweepOptions pull_opt = opt_.sweep_options();
    pull_opt.cache_dir.clear();
    pull_opt.store = &store;
    pull_opt.queue = &queue;
    const exec::SweepResult pulled = exec::run_sweep(grid, pull_opt);
    record_execution(pulled);
    net_.jobs_pulled = pulled.jobs_pulled;
    std::fprintf(stderr, "%s: pulled %zu/%zu jobs from %s\n",
                 opt_.bench_name.c_str(), pulled.jobs_pulled, njobs,
                 net_.server.c_str());

    // Assembly pass: the full grid from the server's store. Cells another
    // worker simulated arrive as hits; if the server is unreachable the
    // missing cells re-simulate locally — slower, still bit-identical.
    exec::SweepOptions assemble = opt_.sweep_options();
    assemble.cache_dir.clear();
    assemble.store = &store;
    exec::SweepResult sweep = exec::run_sweep(grid, assemble);
    record(sweep);

    client.stats(sweep_id, &net_.workers);
    const net::StoreClient::Counters counters = client.counters();
    net_.gets = counters.gets;
    net_.puts = counters.puts;
    net_.reconnects = counters.reconnects;
    server_.stop();  // no-op in connect mode
    return sweep;
  }

  /// Spawns the --launch shard workers and relays their stderr line by
  /// line under a "[shard i]" prefix (each worker's progress dots arrive
  /// as one line: sweeps only newline-terminate them at the end).
  exec::LaunchReport run_workers() {
    exec::LaunchOptions lo;
    lo.max_retries = kLaunchMaxRetries;
    for (unsigned i = 0; i < opt_.launch; ++i) {
      lo.worker_argv.push_back(opt_.worker_argv(i));
    }
    std::vector<std::string> buffered(opt_.launch);
    auto flush_line = [](std::uint32_t w, std::string_view line) {
      std::fprintf(stderr, "[shard %u] %.*s\n", w,
                   static_cast<int>(line.size()), line.data());
    };
    lo.on_output = [&](std::uint32_t w, std::string_view chunk) {
      std::string& buf = buffered[w];
      buf.append(chunk);
      std::size_t pos;
      while ((pos = buf.find('\n')) != std::string::npos) {
        flush_line(w, std::string_view(buf).substr(0, pos));
        buf.erase(0, pos + 1);
      }
    };
    lo.on_attempt = [&](const exec::WorkerStatus& s, bool will_retry) {
      if (s.ok) return;
      char reason[64];
      if (s.term_signal != 0) {
        std::snprintf(reason, sizeof(reason), "died to signal %d",
                      s.term_signal);
      } else if (s.exit_code < 0) {
        std::snprintf(reason, sizeof(reason), "could not be spawned");
      } else {
        std::snprintf(reason, sizeof(reason), "exited with code %d",
                      s.exit_code);
      }
      std::fprintf(stderr, "[shard %u] attempt %u/%u %s%s\n", s.index,
                   s.attempts, 1 + kLaunchMaxRetries, reason,
                   will_retry ? "; retrying" : "; giving up");
    };
    std::fprintf(stderr, "%s: launching %u shard workers (cache %s)\n",
                 opt_.bench_name.c_str(), opt_.launch,
                 opt_.cache_dir.c_str());
    exec::LaunchReport report = exec::launch_workers(lo);
    for (std::uint32_t w = 0; w < buffered.size(); ++w) {
      if (!buffered[w].empty()) flush_line(w, buffered[w]);
    }
    return report;
  }

  /// Execution-only counters of a pull-pass sweep. Its *results* are not
  /// recorded — the assembly pass records every point exactly once, so the
  /// JSON output and point totals stay a pure function of the grid.
  void record_execution(const exec::SweepResult& sweep) {
    simulated_ += sweep.simulated;
    cache_hits_ += sweep.cache_hits;
    corrupt_ += sweep.cache_corrupt;
    experiments_ += sweep.experiments;
    phases_ += sweep.phases;
    for (const auto& [label, span] : sweep.scheme_simulate_s) {
      schemes_[label].simulate_s += span;
    }
  }

  void record(const exec::SweepResult& sweep) {
    sink_.add_sweep(sweep);
    points_ += sweep.num_points();
    simulated_ += sweep.simulated;
    cache_hits_ += sweep.cache_hits;
    skipped_ += sweep.skipped;
    corrupt_ += sweep.cache_corrupt;
    for (const harness::RunResult& r : sweep.points()) {
      if (!r.trace.empty()) {
        uops_ += r.committed_uops;
        cycles_ += r.cycles;
        schemes_[r.scheme].uops += r.committed_uops;
      }
    }
    for (const auto& [label, span] : sweep.scheme_simulate_s) {
      schemes_[label].simulate_s += span;
    }
    experiments_ += sweep.experiments;
    phases_ += sweep.phases;
    if (sweep.model.enabled) {
      // Counters sum across sweeps; the rank-agreement stats describe one
      // frontier, so the last pruned sweep's values stand for the run.
      model_.enabled = true;
      model_.top_k = sweep.model.top_k;
      model_.estimated += sweep.model.estimated;
      model_.pruned += sweep.model.pruned;
      model_.spearman = sweep.model.spearman;
      model_.top3_overlap = sweep.model.top3_overlap;
    }
    if (sweep.skipped > 0) {
      std::fprintf(stderr,
                   "%s: %zu points (%zu simulated, %zu cache hits, "
                   "%zu other-shard)\n",
                   opt_.bench_name.c_str(), sweep.num_points(),
                   sweep.simulated, sweep.cache_hits, sweep.skipped);
    } else if (!opt_.cache_dir.empty()) {
      std::fprintf(stderr, "%s: %zu points (%zu simulated, %zu cache hits)\n",
                   opt_.bench_name.c_str(), sweep.num_points(),
                   sweep.simulated, sweep.cache_hits);
    }
    if (sweep.cache_corrupt > 0) {
      std::fprintf(stderr, "%s: recovered %zu corrupt cache entr%s by"
                   " re-simulating\n",
                   opt_.bench_name.c_str(), sweep.cache_corrupt,
                   sweep.cache_corrupt == 1 ? "y" : "ies");
    }
  }

  void finish_summary(bool ok) const {
    if (opt_.summary_json_path.empty()) return;
    exec::RunSummary summary;
    summary.bench = opt_.bench_name;
    summary.ok = ok;
    summary.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    summary.points = points_;
    summary.simulated = simulated_;
    summary.cache_hits = cache_hits_;
    summary.skipped = skipped_;
    summary.corrupt_recovered = corrupt_;
    summary.uops = uops_;
    summary.cycles = cycles_;
    summary.experiments = experiments_;
    summary.phases = phases_;
    summary.schemes = schemes_;
    if (launch_report_) {
      summary.launch_workers = opt_.launch;
      summary.launch_max_retries = kLaunchMaxRetries;
      summary.shards = launch_report_->workers;
    }
    summary.net = net_;
    summary.model = model_;
    summary.options = echo_options(opt_);
    std::ofstream os(opt_.summary_json_path);
    if (os) {
      exec::write_summary_json(os, summary);
      os.flush();
    }
    if (!os) {
      std::fprintf(stderr, "%s: cannot write %s\n", opt_.bench_name.c_str(),
                   opt_.summary_json_path.c_str());
    }
  }

  const Options& opt_;
  exec::ResultSink sink_;
  std::chrono::steady_clock::time_point start_;
  std::optional<exec::LaunchReport> launch_report_;
  ServerProcess server_;
  exec::RunSummary::NetSummary net_;
  exec::RunSummary::ModelSummary model_;
  std::size_t points_ = 0;
  std::size_t simulated_ = 0;
  std::size_t cache_hits_ = 0;
  std::size_t skipped_ = 0;
  std::size_t corrupt_ = 0;
  std::uint64_t uops_ = 0;
  std::uint64_t cycles_ = 0;
  std::size_t experiments_ = 0;
  exec::PhaseSeconds phases_;
  std::map<std::string, exec::RunSummary::SchemeSummary> schemes_;
  bool first_ = true;
};

}  // namespace vcsteer::bench
