// Shared command-line driver for the figure/ablation benches.
//
// Every bench used to hand-roll the same flag loop; they now share one
// parser and one output path:
//
//   bench [--jobs N] [--smoke|--quick] [--seed S] [--launch N]
//         [--connect ADDR] [--client-id ID]
//         [--cache-dir DIR] [--json FILE] [--summary-json FILE] [--csv]
//
//   --jobs N       worker threads for the sweep (default: all cores).
//                  Results are bit-identical for every N (see src/exec/).
//   --smoke        smoke budget + reduced trace set (alias: --quick).
//   --seed S       extra salt mixed into every workload seed.
//   --launch N     spread the sweep over N worker processes: spawn a private
//                  vcsteer-sweepd over --cache-dir on a unix socket, re-exec
//                  this binary as N `--connect` workers, retry a crashed
//                  worker (bounded), then assemble the grid from the
//                  daemon's store. --jobs is the total thread budget, split
//                  across the workers.
//   --connect ADDR lease (trace, machine) jobs from a vcsteer-sweepd at ADDR
//                  (unix:/path or [tcp:]host:port) until the sweep drains,
//                  then assemble the whole grid from its store, so every
//                  client writes byte-identical --json. No --cache-dir or
//                  --launch: jobs and results live on the server. The
//                  summary JSON's `net.workers` carries the server's
//                  per-worker jobs-pulled tallies.
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
//                  combined with --launch/--connect.
//   --json FILE    write raw results + all tables as one JSON document.
//   --summary-json FILE
//                  machine-readable run summary (sweep counters, wall time,
//                  per-worker status, parsed-option echo) for CI gates — see
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
#include <sys/un.h>
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
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "exec/launcher.hpp"
#include "exec/result_sink.hpp"
#include "exec/sweep.hpp"
#include "harness/experiment.hpp"
#include "net/client.hpp"

namespace vcsteer::bench {

/// Retries per worker beyond its first attempt (--launch).
inline constexpr unsigned kLaunchMaxRetries = 2;

struct Options {
  std::string bench_name;
  std::string exe;  // argv[0]; what --launch re-execs
  unsigned jobs = exec::default_jobs();
  bool smoke = false;
  bool csv = false;
  bool progress = false;  // --progress: per-job heartbeat on stderr
  std::uint64_t seed = 0;
  unsigned launch = 0;  // >= 2: spawn that many leasing workers
  std::string cache_dir;
  std::string connect;    // --connect: lease jobs from this sweepd address
  std::string client_id;  // --client-id: name in server lease stats
  std::size_t prune_model = 0;  // --prune-model K: top-K configs simulated
  std::string json_path;
  std::string summary_json_path;

  harness::SimBudget budget() const {
    return smoke ? harness::SimBudget::smoke() : harness::SimBudget{};
  }

  /// The sweep leases its jobs from a vcsteer-sweepd instead of running
  /// them all in this process.
  bool distributed() const {
    return launch >= 2 || !connect.empty();
  }

  /// Command line for worker `i` of a --launch run: a --connect to the
  /// daemon at `server` under client id w<i>, plus the bench's own
  /// sweep-shaping flags. Output flags (--json, --summary-json, --csv) stay
  /// with the parent — workers publish results only through the server's
  /// store. --jobs is the run's *total* thread budget, split across the
  /// workers: forwarding it verbatim would oversubscribe the machine N-fold
  /// under the all-cores default.
  std::vector<std::string> worker_argv(unsigned i,
                                       const std::string& server) const {
    const unsigned worker_jobs = std::max(1u, jobs / std::max(launch, 1u));
    std::vector<std::string> argv = {
        exe,      "--connect", server, "--client-id", "w" + std::to_string(i),
        "--jobs", std::to_string(worker_jobs)};
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

  /// Path of the vcsteer-sweepd binary --launch spawns: a sibling of
  /// the bench executable (both live in the build directory).
  std::string sweepd_path() const {
    const std::size_t slash = exe.rfind('/');
    return slash == std::string::npos ? "vcsteer-sweepd"
                                      : exe.substr(0, slash + 1) + "vcsteer-sweepd";
  }

  /// Test-only crash injection for the launcher's recovery path: a worker
  /// whose --client-id equals VCSTEER_TEST_CRASH_CLIENT SIGKILLs itself
  /// after VCSTEER_TEST_CRASH_AFTER (default 1) finished jobs — on its
  /// first launch attempt only, unless VCSTEER_TEST_CRASH_ALWAYS is set.
  /// Returns 0 when inactive.
  std::size_t crash_after_jobs() const {
    const char* crash_client = std::getenv("VCSTEER_TEST_CRASH_CLIENT");
    if (crash_client == nullptr || client_id.empty() ||
        client_id != crash_client) {
      return 0;
    }
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
      {"--launch", nullptr, "N",
       "spread the sweep over N worker processes leasing jobs from a "
       "private vcsteer-sweepd over --cache-dir",
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
  // Cross-flag validation.
  if (!opt.connect.empty() && (opt.launch >= 2 || !opt.cache_dir.empty())) {
    parse_fail(opt, "--connect replaces --launch/--cache-dir (jobs and "
                    "results live on the server)");
  }
  if (opt.launch >= 2 && opt.cache_dir.empty()) {
    parse_fail(opt, "--launch requires --cache-dir (the daemon's durable "
                    "result store)");
  }
  // The frontier ranking needs every grid point's model score in one
  // process; distributed modes see only a slice.
  if (opt.prune_model > 0 && opt.distributed()) {
    parse_fail(opt, "--prune-model needs the whole grid in one process; it "
                    "cannot be combined with --launch/--connect");
  }
  return opt;
}

/// The vcsteer-sweepd a --launch run spawns: fork/exec'd by start(),
/// SIGTERM'd and reaped by stop(). It listens on a unix socket in a private
/// mkdtemp directory, which stop() removes. The daemon must already be
/// accepting connections when start() returns (its listen socket is bound
/// inside the SweepServer constructor, so one successful PING suffices).
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// The address the daemon listens on, once start() has chosen it.
  const std::string& address() const { return address_; }

  bool start(const Options& opt) {
    if (!make_private_socket()) return false;
    const std::string path = opt.sweepd_path();
    std::vector<std::string> argv = {path,        "--listen", address_,
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
    co.connect = address_;
    co.reconnect_window_s = 10;
    net::StoreClient probe(co);
    if (!probe.ping()) {
      std::fprintf(stderr, "vcsteer-sweepd on %s never answered PING\n",
                   address_.c_str());
      return false;
    }
    return true;
  }

  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (!private_dir_.empty()) {
      // A daemon that stopped cleanly unlinked its socket; one that died
      // (or was stopped before it could) left it behind.
      ::unlink((private_dir_ + kSocketName).c_str());
      ::rmdir(private_dir_.c_str());
      private_dir_.clear();
    }
  }

 private:
  static constexpr const char* kSocketName = "/sweepd.sock";

  /// A unix socket in a fresh mkdtemp directory under $TMPDIR, or under
  /// /tmp when that path would not fit sockaddr_un::sun_path.
  bool make_private_socket() {
    const char* tmp = std::getenv("TMPDIR");
    std::string dir = tmp != nullptr && *tmp != '\0' ? tmp : "/tmp";
    dir += "/vcsteer-XXXXXX";
    if (dir.size() + std::strlen(kSocketName) >=
        sizeof(sockaddr_un::sun_path)) {
      dir = "/tmp/vcsteer-XXXXXX";
    }
    if (::mkdtemp(dir.data()) == nullptr) {
      std::fprintf(stderr, "mkdtemp %s: %s\n", dir.c_str(),
                   std::strerror(errno));
      return false;
    }
    private_dir_ = dir;
    address_ = "unix:" + dir + kSocketName;
    return true;
  }

  pid_t pid_ = -1;
  std::string address_;
  std::string private_dir_;  ///< empty unless start() made one
};

/// Runs the sweep (through a vcsteer-sweepd and --launch workers when
/// distributed), prints tables as they are added (text or CSV per --csv),
/// accumulates results into a ResultSink and counters into one RunSummary,
/// and writes the --json and --summary-json files on finish().
class Output {
 public:
  explicit Output(const Options& opt)
      : opt_(opt),
        sink_(opt.bench_name),
        start_(std::chrono::steady_clock::now()) {}

  /// The whole execution phase of a bench. The returned sweep always holds
  /// the whole grid; a distributed run that cannot assemble it writes the
  /// --summary-json (ok:false) and exits non-zero instead of returning.
  exec::SweepResult run(const exec::SweepGrid& grid) {
    if (opt_.distributed()) return run_networked(grid);
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
  /// The distributed execution phase, every role:
  ///   --launch N: spawn a private daemon and N leasing workers, then lease
  ///              alongside them (nothing is left once they succeed);
  ///   --connect: lease jobs from an already-running daemon.
  /// Either way the run ends with an assembly pass that reads the complete
  /// grid back from the server's store, so every participant emits
  /// byte-identical results JSON — the same shape as a local --jobs 1 run.
  exec::SweepResult run_networked(const exec::SweepGrid& grid) {
    if (opt_.connect.empty() && !server_.start(opt_)) fail();
    exec::RunSummary::NetSummary& net = summary_.net;
    net.enabled = true;
    net.role = opt_.connect.empty() ? "serve" : "connect";
    net.server = opt_.connect.empty() ? server_.address() : opt_.connect;
    if (opt_.launch >= 2) {
      const exec::LaunchReport report = run_workers(net.server);
      summary_.shards = report.workers;
      summary_.launch_max_retries = kLaunchMaxRetries;
      if (!report.ok) {
        std::fprintf(stderr,
                     "%s: %zu of %u worker(s) failed after %u attempts each;"
                     " skipping the assembly run\n",
                     opt_.bench_name.c_str(), report.failed_workers(),
                     opt_.launch, 1 + kLaunchMaxRetries);
        fail();
      }
    }

    net::ClientOptions co;
    co.connect = net.server;
    net::StoreClient client(co);
    net::NetResultStore store(&client);
    const std::uint64_t sweep_id = exec::grid_fingerprint(grid, opt_.seed);
    const std::size_t njobs = grid.profiles.size() * grid.machines.size();
    net::NetJobQueue queue(&client, sweep_id, njobs,
                           opt_.effective_client_id());

    // Pull pass: lease and simulate jobs until the whole sweep drains
    // (jobs other workers pulled are theirs; lost leases come to us). Its
    // results are not recorded — the assembly pass records every point
    // exactly once, so the JSON and point totals stay a pure function of
    // the grid.
    exec::SweepOptions pull_opt = opt_.sweep_options();
    pull_opt.cache_dir.clear();
    pull_opt.store = &store;
    pull_opt.queue = &queue;
    const exec::SweepResult pulled = exec::run_sweep(grid, pull_opt);
    summary_.sweep += pulled;
    // The progress dots end their line only at done == total, which counts
    // every job of the sweep; a pass that pulled some of them ends it here.
    if (pulled.jobs_pulled > 0 && pulled.jobs_pulled < njobs) {
      std::fputc('\n', stderr);
    }
    std::fprintf(stderr, "%s: pulled %zu/%zu jobs from %s\n",
                 opt_.bench_name.c_str(), pulled.jobs_pulled, njobs,
                 net.server.c_str());

    // Assembly pass: the full grid from the server's store. Cells another
    // worker simulated arrive as hits; if the server is unreachable the
    // missing cells re-simulate locally — slower, still bit-identical.
    exec::SweepOptions assemble = opt_.sweep_options();
    assemble.cache_dir.clear();
    assemble.store = &store;
    exec::SweepResult sweep = exec::run_sweep(grid, assemble);
    record(sweep);

    client.stats(sweep_id, &net.workers);
    const net::StoreClient::Counters counters = client.counters();
    net.gets = counters.gets;
    net.puts = counters.puts;
    net.reconnects = counters.reconnects;
    server_.stop();  // no-op in connect mode
    return sweep;
  }

  /// Spawns the --launch workers against the daemon at `server` and relays
  /// their stderr line by line under a "[w<i>]" prefix, their client id
  /// (each worker's progress dots arrive as one line: sweeps only
  /// newline-terminate them at the end).
  exec::LaunchReport run_workers(const std::string& server) {
    exec::LaunchOptions lo;
    lo.max_retries = kLaunchMaxRetries;
    for (unsigned i = 0; i < opt_.launch; ++i) {
      lo.worker_argv.push_back(opt_.worker_argv(i, server));
    }
    std::vector<std::string> buffered(opt_.launch);
    auto flush_line = [](std::uint32_t w, std::string_view line) {
      std::fprintf(stderr, "[w%u] %.*s\n", w, static_cast<int>(line.size()),
                   line.data());
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
      const std::string reason =
          s.term_signal != 0 ? "died to signal " + std::to_string(s.term_signal)
          : s.exit_code < 0  ? "could not be spawned"
                             : "exited with code " + std::to_string(s.exit_code);
      std::fprintf(stderr, "[w%u] attempt %u/%u %s%s\n", s.index, s.attempts,
                   1 + kLaunchMaxRetries, reason.c_str(),
                   will_retry ? "; retrying" : "; giving up");
    };
    std::fprintf(stderr, "%s: launching %u workers leasing from %s\n",
                 opt_.bench_name.c_str(), opt_.launch, server.c_str());
    exec::LaunchReport report = exec::launch_workers(lo);
    for (std::uint32_t w = 0; w < buffered.size(); ++w) {
      if (!buffered[w].empty()) flush_line(w, buffered[w]);
    }
    return report;
  }

  /// Adds a sweep that holds the whole grid: its points go to the sink and
  /// the summary's result totals, its counters into the summary's.
  void record(const exec::SweepResult& sweep) {
    sink_.add_sweep(sweep);
    summary_.sweep += sweep;
    summary_.points += sweep.num_points();
    for (const harness::RunResult& r : sweep.points()) {
      summary_.cycles += r.cycles;
    }
    if (!opt_.cache_dir.empty()) {
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

  /// A distributed run that cannot assemble its grid: the summary says why
  /// (ok:false), the spawned daemon and its private socket directory go,
  /// and the bench exits 1.
  [[noreturn]] void fail() {
    finish_summary(/*ok=*/false);
    server_.stop();
    std::exit(1);
  }

  void finish_summary(bool ok) {
    if (opt_.summary_json_path.empty()) return;
    summary_.bench = opt_.bench_name;
    summary_.ok = ok;
    summary_.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    summary_.options = echo_options(opt_);
    std::ofstream os(opt_.summary_json_path);
    if (os) {
      exec::write_summary_json(os, summary_);
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
  ServerProcess server_;
  exec::RunSummary summary_;
  bool first_ = true;
};

}  // namespace vcsteer::bench
