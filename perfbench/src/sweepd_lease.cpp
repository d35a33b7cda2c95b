// sweepd-lease: the distributed-sweep protocol with no compute.
//
// A private vcsteer-sweepd listens on a unix socket inside the work
// directory. Four client threads, each owning a net::StoreClient, drive
// kSweeps sweeps per repetition closed loop: lease a job, PUT each of its
// points, DONE, until the queue drains; then assemble the whole grid by GET
// and move to the next sweep. Leasing and DONE go through net::NetJobQueue,
// the shipped client's own policy (on WAIT it backs off and polls again), so
// the LEASE traffic is the program's. Payloads are
// well-formed synthetic RunResults under real exec::cache_keys for a
// 2000-point grid (40 traces x 10 machines x 5 schemes; one job per
// (trace, machine) cell), so PUTs (fsync'd cache writes) sit beside GETs
// at 1:4. The simulator and the model are not touched.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "exec/cache.hpp"
#include "exec/sweep.hpp"
#include "net/client.hpp"
#include "workload/profiles.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace vcsteer;

constexpr unsigned kClients = 4;
constexpr std::size_t kSweeps = 2;  // sweep ids per repetition
/// Slowest repetition observed (4-vCPU Xeon VM), which sizes the count.
constexpr double kSlowestRepS = 3.5;

/// The private daemon: fork/exec on start (ready once it answers PING),
/// SIGTERM and reap on stop or destruction.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& listen,
         const std::string& cache_dir, const std::string& log_path) {
    pid_ = ::fork();
    if (pid_ == 0) {
      const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      ::execl(binary.c_str(), binary.c_str(), "--listen", listen.c_str(),
              "--cache-dir", cache_dir.c_str(), static_cast<char*>(nullptr));
      std::fprintf(stderr, "exec %s: %s\n", binary.c_str(), std::strerror(errno));
      ::_exit(127);
    }
    if (pid_ < 0) return;
    net::ClientOptions co;
    co.connect = listen;
    co.reconnect_window_s = 10;
    net::StoreClient probe(co);
    ready_ = probe.ping();
  }
  ~Daemon() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  bool ready() const { return ready_; }

 private:
  pid_t pid_ = -1;
  bool ready_ = false;
};

struct Grid {
  exec::SweepGrid grid;
  std::size_t jobs = 0, schemes = 0;
};

Grid make_grid() {
  Grid g;
  const auto all = workload::all_profiles();
  g.grid.profiles.assign(all.begin(), all.end());
  for (const std::uint32_t clusters : {2u, 4u}) {
    for (std::uint32_t link = 1; link <= 5; ++link) {
      MachineConfig machine = clusters == 2 ? MachineConfig::two_cluster()
                                            : MachineConfig::four_cluster();
      machine.interconnect.link_latency = link;
      g.grid.machines.push_back(machine);
    }
  }
  using steer::Scheme;
  g.grid.schemes = {harness::SchemeSpec{Scheme::kOp, 0},
                    harness::SchemeSpec{Scheme::kOneCluster, 0},
                    harness::SchemeSpec{Scheme::kOb, 0},
                    harness::SchemeSpec{Scheme::kRhop, 0},
                    harness::SchemeSpec{Scheme::kVc, 0}};
  g.grid.budget = harness::SimBudget::smoke();
  g.jobs = g.grid.profiles.size() * g.grid.machines.size();
  g.schemes = g.grid.schemes.size();
  return g;
}

/// Synthetic, well-formed result of point `i` of sweep `k`: a function of
/// the seed only, so every repetition assembles the same bytes.
std::string synthetic_payload(const Grid& g, std::uint64_t seed, std::size_t k,
                              std::size_t i) {
  Rng rng(hash_seed("sweepd-lease", seed) ^ (k << 32) ^ i);
  const std::size_t cell = i / g.schemes;
  const MachineConfig& machine = g.grid.machines[cell % g.grid.machines.size()];
  harness::RunResult r;
  r.trace = g.grid.profiles[cell / g.grid.machines.size()].name;
  r.scheme = g.grid.schemes[i % g.schemes].label(machine);
  r.ipc = 0.5 + 2.0 * rng.uniform();
  r.copies_per_kuop = 400.0 * rng.uniform();
  r.alloc_stalls_per_kuop = 100.0 * rng.uniform();
  r.copy_hops_per_kuop = 600.0 * rng.uniform();
  r.committed_uops = 60'000;
  r.cycles = static_cast<std::uint64_t>(60'000 / r.ipc);
  r.num_points = 3;
  r.num_clusters = machine.num_clusters;
  r.last_interval.cycles = r.cycles / 3;
  r.last_interval.committed_uops = 20'000;
  for (std::uint32_t c = 0; c < machine.num_clusters; ++c) {
    r.avg_iq_occupancy[c] = 48.0 * rng.uniform();
    r.steered_local[c] = rng.below(20'000);
    r.steered_with_copy[c] = rng.below(5'000);
  }
  return exec::encode_result(r);
}

/// One sweep's keys (grid order) and identity under salt `salt`.
struct SweepKeys {
  std::uint64_t id = 0;
  std::vector<std::string> keys;
};

SweepKeys sweep_keys(const Grid& g, std::uint64_t salt) {
  return {exec::grid_fingerprint(g.grid, salt), grid_keys(g.grid, salt)};
}

enum Verb { kGet, kPut, kLease, kDone, kVerbs };
constexpr const char* kVerbName[kVerbs] = {"get", "put", "lease", "done"};

/// What one client thread saw in one repetition. `rtt_us[kLease]` holds the
/// acquires answered by a single LEASE: a plain round trip. An acquire that
/// met WAIT also holds the client's back-off, so it only counts its LEASEs.
struct ClientLog {
  std::vector<double> rtt_us[kVerbs];
  std::uint64_t leases = 0;      ///< LEASE requests sent.
  std::uint64_t waits = 0;       ///< LEASEs answered WAIT.
  std::uint64_t mismatches = 0;  ///< GETs that missed or differ from the PUT.
  std::uint64_t errors = 0;      ///< failed PUTs and out-of-range jobs.
  std::uint64_t received = kDigestSeed;  ///< digest of every GET's bytes.
};

/// State set up before timing: payloads, the daemon and connected clients.
struct Setup {
  Grid grid;
  std::vector<std::vector<std::string>> payloads;  // [sweep][point]
  std::string cache_dir;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<net::StoreClient>> clients;
};

/// Stops the daemon and drops the clients (not part of set-up timing).
void tear_down(Setup* s) {
  s->clients.clear();
  s->daemon.reset();
}

void set_up(const RunConfig& cfg, Setup* s) {
  s->grid = make_grid();
  const std::size_t points = s->grid.jobs * s->grid.schemes;
  s->payloads.assign(kSweeps, {});
  for (std::size_t k = 0; k < kSweeps; ++k) {
    for (std::size_t i = 0; i < points; ++i) {
      s->payloads[k].push_back(synthetic_payload(s->grid, cfg.seed, k, i));
    }
  }
  const std::string listen = "unix:" + cfg.work_dir + "/sweepd.sock";
  s->cache_dir = cfg.work_dir + "/sweepd-cache";
  fresh_dir(s->cache_dir);
  s->daemon = std::make_unique<Daemon>(cfg.bin_dir + "/vcsteer-sweepd",
                                       listen, s->cache_dir,
                                       cfg.work_dir + "/sweepd.log");
  net::ClientOptions co;
  co.connect = listen;
  co.reconnect_window_s = 10;
  for (unsigned c = 0; c < kClients; ++c) {
    s->clients.push_back(std::make_unique<net::StoreClient>(co));
    s->clients.back()->ping();
  }
}

/// One repetition: kSweeps sweeps under salts salt0, salt0+1, ...
/// `log_for(c)` returns client c's SpanLog when tracing, else nullptr.
/// Returns the timed seconds.
template <typename LogFor>
double run_rep(Setup& s, std::uint64_t salt0, std::vector<ClientLog>* logs,
               std::vector<std::vector<int>>* done_count, LogFor&& log_for,
               std::uint64_t root) {
  std::vector<SweepKeys> sweeps;
  for (std::size_t k = 0; k < kSweeps; ++k) {
    sweeps.push_back(sweep_keys(s.grid, salt0 + k));
  }
  done_count->assign(kSweeps, std::vector<int>(s.grid.jobs, 0));
  std::vector<std::vector<std::atomic<int>>> done_atomic(kSweeps);
  for (auto& v : done_atomic) v = std::vector<std::atomic<int>>(s.grid.jobs);
  logs->assign(kClients, ClientLog{});

  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      net::StoreClient& client = *s.clients[c];
      ClientLog& log = (*logs)[c];
      SpanLog* spans = log_for(c);
      const std::string id = "client" + std::to_string(c);
      // Times one round trip into `verb`'s samples (and a span if tracing).
      const auto timed = [&](Verb verb, std::uint64_t parent, std::uint64_t cell,
                             auto&& call) {
        const std::uint64_t span =
            spans ? spans->begin(std::string("net.") + kVerbName[verb], parent, cell)
                  : 0;
        const Clock::time_point r0 = Clock::now();
        auto reply = call();
        log.rtt_us[verb].push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - r0).count());
        if (spans) spans->end(span);
        return reply;
      };
      for (std::size_t k = 0; k < kSweeps; ++k) {
        const SweepKeys& sweep = sweeps[k];
        const std::uint64_t sweep_span =
            spans ? spans->begin("client.sweep", root) : 0;
        net::NetJobQueue queue(&client, sweep.id, s.grid.jobs, id);
        for (;;) {
          std::size_t job = 0;
          const std::uint64_t leases0 = client.counters().leases;
          const std::uint64_t span =
              spans ? spans->begin("net.acquire", sweep_span) : 0;
          const Clock::time_point a0 = Clock::now();
          const bool got = queue.acquire(&job);
          const double us =
              std::chrono::duration<double, std::micro>(Clock::now() - a0).count();
          if (spans) spans->end(span);
          // Every LEASE of one acquire but its last was answered WAIT.
          const std::uint64_t sent = client.counters().leases - leases0;
          log.leases += sent;
          log.waits += sent - 1;
          if (sent == 1) log.rtt_us[kLease].push_back(us);
          if (!got) break;  // drained (or the reconnect window ran out)
          if (job >= s.grid.jobs) {
            ++log.errors;
            break;
          }
          for (std::size_t p = job * s.grid.schemes;
               p < (job + 1) * s.grid.schemes; ++p) {
            if (!timed(kPut, sweep_span, job + 1, [&] {
                  return client.put(sweep.keys[p], s.payloads[k][p]);
                })) {
              ++log.errors;
            }
          }
          // A lost DONE lets the lease expire and the job be granted again,
          // which the DONE-once check catches.
          timed(kDone, sweep_span, job + 1, [&] {
            queue.complete(job);
            return true;
          });
          done_atomic[k][job].fetch_add(1);
        }
        std::string text;
        for (std::size_t p = 0; p < sweep.keys.size(); ++p) {
          const exec::CacheLookup looked =
              timed(kGet, sweep_span, p / s.grid.schemes + 1,
                    [&] { return client.get(sweep.keys[p], &text); });
          if (looked != exec::CacheLookup::kHit || text != s.payloads[k][p]) {
            ++log.mismatches;
          }
          log.received = digest_bytes(digest_bytes(log.received, text), "\x1f");
        }
        if (spans) spans->end(sweep_span);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall = seconds_since(t0);
  for (std::size_t k = 0; k < kSweeps; ++k) {
    for (std::size_t j = 0; j < s.grid.jobs; ++j) {
      (*done_count)[k][j] = done_atomic[k][j].load();
    }
  }
  return wall;
}

/// Output checks of one repetition.
void check_rep(const std::vector<ClientLog>& logs,
               const std::vector<std::vector<int>>& done_count, Checks* checks) {
  for (unsigned c = 0; c < kClients; ++c) {
    checks->expect(logs[c].mismatches == 0,
                   "sweepd-lease: client " + std::to_string(c) +
                       " GETs return exactly the bytes that were PUT");
    checks->expect(logs[c].errors == 0,
                   "sweepd-lease: client " + std::to_string(c) +
                       " PUTs succeed and leases name jobs of the sweep");
    checks->expect(logs[c].received == logs[0].received,
                   "sweepd-lease: client " + std::to_string(c) +
                       " assembles the same bytes as client 0");
  }
  for (std::size_t k = 0; k < done_count.size(); ++k) {
    bool once = true;
    for (const int n : done_count[k]) once = once && n == 1;
    checks->expect(once, "sweepd-lease: every job of sweep " +
                             std::to_string(k) + " is DONE exactly once");
  }
}

/// Payloads are well-formed: each decodes and re-encodes to itself.
void check_payloads(const Setup& s, Checks* checks) {
  std::size_t bad = 0;
  for (const auto& sweep : s.payloads) {
    for (const std::string& text : sweep) {
      harness::RunResult r;
      if (!exec::decode_result(text, &r) || exec::encode_result(r) != text) ++bad;
    }
  }
  checks->expect(bad == 0, "sweepd-lease: payloads decode to RunResults");
}

/// Salt of repetition `rep`: fresh sweep ids (and keys) every repetition.
std::uint64_t rep_salt(std::uint64_t seed, std::size_t rep) {
  return seed * 1'000'003ULL + rep * kSweeps + 1;
}

}  // namespace

Outcome sweepd_lease(const RunConfig& cfg) {
  Outcome out;
  Setup setup;
  std::vector<double> setups;
  for (int i = 0; i < 5; ++i) {
    tear_down(&setup);
    time_setups(1, 1, &setups, [&] { set_up(cfg, &setup); });
  }
  const double setup_s = median(setups);
  if (!out.checks.expect(setup.daemon->ready(),
                         "sweepd-lease: vcsteer-sweepd answers PING")) {
    return out;
  }
  check_payloads(setup, &out.checks);

  std::vector<double> ops_per_s, rtt_all;
  std::uint64_t leases = 0, waits = 0;
  std::size_t rep = 0;
  // Every repetition PUTs fresh keys, so the cache is not cleared between
  // repetitions: deleting thousands of entries would leave journal work
  // for the next repetition's fsyncs.
  const std::vector<double> walls =
      timed_reps(rep_count(cfg.seconds, kSlowestRepS), [&] {
        std::vector<ClientLog> logs;
        std::vector<std::vector<int>> done_count;
        const double wall =
            run_rep(setup, rep_salt(cfg.seed, rep++), &logs, &done_count,
                    [](unsigned) -> SpanLog* { return nullptr; }, 0);
        check_rep(logs, done_count, &out.checks);
        // Payloads depend on the seed alone, so every repetition assembles
        // the same bytes.
        if (out.digest == 0) out.digest = logs[0].received;
        out.checks.expect(logs[0].received == out.digest,
                          "sweepd-lease: repetitions assemble identical grids");
        std::size_t ops = 0;
        for (const ClientLog& log : logs) {
          ops += log.rtt_us[kGet].size() + log.rtt_us[kPut].size() +
                 log.rtt_us[kDone].size() + log.leases;
          for (const auto& v : log.rtt_us) {
            rtt_all.insert(rtt_all.end(), v.begin(), v.end());
          }
          leases += log.leases;
          waits += log.waits;
        }
        ops_per_s.push_back(static_cast<double>(ops) / wall);
        return wall;
      });
  tear_down(&setup);

  const std::size_t points = kSweeps * setup.grid.jobs * setup.grid.schemes;
  const double wall = fastest(walls);
  out.metric("wall_s", wall, "s");
  out.metric("points_per_s", static_cast<double>(points) / wall, "1/s");
  out.metric("setup_s", setup_s, "s");
  out.metric("wall_median_s", median(walls), "s");
  out.metric("ops_per_s", *std::max_element(ops_per_s.begin(), ops_per_s.end()),
             "1/s");
  out.metric("rtt_p50_us", percentile(rtt_all, 0.50), "us");
  out.metric("rtt_p99_us", percentile(rtt_all, 0.99), "us");
  out.metric("lease_wait_ratio",
             static_cast<double>(waits) / static_cast<double>(leases), "ratio");
  out.metric("reps", static_cast<double>(walls.size()), "count");
  out.notes.push_back(rep_walls(walls));
  out.notes.push_back("rtt percentiles over " + std::to_string(rtt_all.size()) +
                      " round trips (all verbs, all repetitions; LEASEs "
                      "answered WAIT, which the client backs off after, are "
                      "counted in ops_per_s but not timed)");
  return out;
}

Outcome sweepd_lease_traced(const RunConfig& cfg, TracedRun* run) {
  Outcome out;
  Setup setup;
  set_up(cfg, &setup);
  if (!out.checks.expect(setup.daemon->ready(),
                         "sweepd-lease: vcsteer-sweepd answers PING")) {
    return out;
  }
  check_payloads(setup, &out.checks);

  std::vector<ClientLog> logs;
  std::vector<std::vector<int>> done_count;
  const auto untraced = [](unsigned) -> SpanLog* { return nullptr; };
  const double untraced_wall =
      run_rep(setup, rep_salt(cfg.seed, 0), &logs, &done_count, untraced, 0);
  check_rep(logs, done_count, &out.checks);
  const std::uint64_t untraced_digest = logs[0].received;

  const Clock::time_point epoch = Clock::now();
  SpanLog main_log(0, epoch);
  std::vector<std::unique_ptr<SpanLog>> client_logs;
  for (unsigned c = 0; c < kClients; ++c) {
    client_logs.push_back(std::make_unique<SpanLog>(c + 1, epoch));
  }
  const std::uint64_t root = main_log.begin("sweepd-lease", 0);
  run_rep(setup, rep_salt(cfg.seed, 1), &logs, &done_count,
          [&](unsigned c) { return client_logs[c].get(); }, root);
  main_log.end(root);
  const double traced_wall = main_log.seconds(root);
  check_rep(logs, done_count, &out.checks);

  std::uint64_t reconnects = 0;
  for (const auto& client : setup.clients) reconnects += client->counters().reconnects;
  tear_down(&setup);
  out.digest = logs[0].received;
  out.checks.expect(out.digest == untraced_digest,
                    "sweepd-lease: traced run assembles the untraced bytes");

  std::uint64_t leases = 0, waits = 0;
  for (int v = 0; v < kVerbs; ++v) {
    std::vector<double> all;
    for (const ClientLog& log : logs) {
      all.insert(all.end(), log.rtt_us[v].begin(), log.rtt_us[v].end());
    }
    out.layer(std::string("net.rtt_us.") + kVerbName[v] + ".p50",
              percentile(all, 0.50), "us");
    out.layer(std::string("net.rtt_us.") + kVerbName[v] + ".p99",
              percentile(all, 0.99), "us");
  }
  for (const ClientLog& log : logs) {
    leases += log.leases;
    waits += log.waits;
  }
  out.layer("net.lease_wait_ratio",
            static_cast<double>(waits) / static_cast<double>(leases), "ratio");
  out.layer("net.reconnects", static_cast<double>(reconnects), "count");
  out.metric("wall_s", untraced_wall, "s");
  out.metric("traced_wall_s", traced_wall, "s");

  std::vector<Span> spans = std::move(main_log.spans());
  for (auto& log : client_logs) {
    for (Span& s : log->spans()) spans.push_back(std::move(s));
  }
  run->workload = "sweepd-lease";
  run->root = root;
  run->spans = std::move(spans);
  return out;
}

}  // namespace perfbench
