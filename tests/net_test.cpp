// Tests for the sweep service: wire framing, address parsing, the
// GET/PUT/LEASE/DONE/STATS protocol against a live server on a unix
// socket, lease expiry and release, crash-restart durability, the client's
// reconnect window, and an end-to-end run_sweep through
// NetJobQueue/NetResultStore that must be bit-identical to a local serial
// sweep.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/cache.hpp"
#include "exec/sweep.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "scratch_dir.hpp"
#include "workload/profiles.hpp"

namespace vcsteer::net {
namespace {

using vcsteer::testing::ScratchDir;

// ---------------------------------------------------------------- framing ---

TEST(Frame, RoundTripsThroughPartialFeeds) {
  std::string wire;
  append_frame(&wire, "hello");
  append_frame(&wire, "");  // empty payloads are legal frames
  std::string big(100000, 'x');
  big[50000] = '\n';
  append_frame(&wire, big);

  // Feed one byte at a time: the reader must handle any split boundary.
  FrameReader reader;
  std::vector<std::string> got;
  std::string payload;
  for (const char byte : wire) {
    reader.feed(&byte, 1);
    while (reader.next(&payload)) got.push_back(payload);
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "hello");
  EXPECT_EQ(got[1], "");
  EXPECT_EQ(got[2], big);
  EXPECT_FALSE(reader.broken());
}

TEST(Frame, OversizedLengthWordBreaksTheStream) {
  // 0xffffffff announced length: must flag broken, not try to buffer 4 GiB.
  const char evil[] = {'\xff', '\xff', '\xff', '\xff', 'a', 'b'};
  FrameReader reader;
  reader.feed(evil, sizeof(evil));
  std::string payload;
  EXPECT_FALSE(reader.next(&payload));
  EXPECT_TRUE(reader.broken());
}

TEST(Frame, SplitVerbLine) {
  std::string_view line, body;
  split_verb_line("GET\nkey=1\n", &line, &body);
  EXPECT_EQ(line, "GET");
  EXPECT_EQ(body, "key=1\n");
  split_verb_line("PONG", &line, &body);
  EXPECT_EQ(line, "PONG");
  EXPECT_EQ(body, "");
}

TEST(Address, ParsesUnixAndTcpForms) {
  Address addr;
  std::string err;
  ASSERT_TRUE(parse_address("unix:/tmp/s.sock", &addr, &err));
  EXPECT_TRUE(addr.is_unix);
  EXPECT_EQ(addr.path, "/tmp/s.sock");

  ASSERT_TRUE(parse_address("tcp:127.0.0.1:9000", &addr, &err));
  EXPECT_FALSE(addr.is_unix);
  EXPECT_EQ(addr.host, "127.0.0.1");
  EXPECT_EQ(addr.port, 9000);

  ASSERT_TRUE(parse_address("localhost:80", &addr, &err));
  EXPECT_EQ(addr.host, "localhost");
  EXPECT_EQ(addr.port, 80);

  EXPECT_FALSE(parse_address("unix:", &addr, &err));
  EXPECT_FALSE(parse_address("nonsense", &addr, &err));
  EXPECT_FALSE(parse_address("host:notaport", &addr, &err));
  EXPECT_FALSE(parse_address("host:0", &addr, &err));
  EXPECT_FALSE(parse_address("host:99999", &addr, &err));
}

// ------------------------------------------------------------ live server ---

/// A SweepServer serving on a background thread, torn down on scope exit.
class ServerHandle {
 public:
  ServerHandle(const ServerOptions& opt)  // NOLINT(google-explicit-constructor)
      : server_(std::make_unique<SweepServer>(opt)) {
    EXPECT_TRUE(server_->ok()) << server_->error();
    if (server_->ok()) {
      thread_ = std::thread([this] { server_->serve(); });
    }
  }
  ~ServerHandle() { shutdown(); }

  void shutdown() {
    if (thread_.joinable()) {
      server_->stop();
      thread_.join();
    }
    server_.reset();
  }

 private:
  std::unique_ptr<SweepServer> server_;
  std::thread thread_;
};

ServerOptions server_options(const std::string& sock,
                             const std::string& cache_dir) {
  ServerOptions opt;
  opt.listen = "unix:" + sock;
  opt.cache_dir = cache_dir;
  return opt;
}

ClientOptions client_options(const std::string& sock, double window_s = 5) {
  ClientOptions opt;
  opt.connect = "unix:" + sock;
  opt.reconnect_window_s = window_s;
  return opt;
}

TEST(SweepService, PingGetPutRoundTrip) {
  ScratchDir dir;
  const std::string sock = dir.path() + "/sweep.sock";
  ServerHandle server(server_options(sock, dir.path() + "/cache"));
  StoreClient client(client_options(sock));

  EXPECT_TRUE(client.ping());

  const std::string key = "trace=a\nscheme=OP\n";
  std::string text;
  EXPECT_EQ(client.get(key, &text), exec::CacheLookup::kMiss);
  // Result bodies may contain blank lines and the -- separator text.
  const std::string result = "ipc=1.25\nnote=--\n\ncycles=99\n";
  EXPECT_TRUE(client.put(key, result));
  ASSERT_EQ(client.get(key, &text), exec::CacheLookup::kHit);
  EXPECT_EQ(text, result);

  // A different key with the same server stays independent.
  EXPECT_EQ(client.get("trace=b\n", &text), exec::CacheLookup::kMiss);

  const StoreClient::Counters counters = client.counters();
  EXPECT_EQ(counters.gets, 3u);
  EXPECT_EQ(counters.puts, 1u);
  EXPECT_EQ(counters.reconnects, 0u);
}

TEST(SweepService, LeaseDrainsDoneAndStats) {
  ScratchDir dir;
  const std::string sock = dir.path() + "/sweep.sock";
  ServerHandle server(server_options(sock, dir.path() + "/cache"));
  StoreClient client(client_options(sock));

  const std::uint64_t sweep = 0xabcdef;
  std::size_t job = 999;
  // Three jobs: granted in order, then WAIT while leases are out.
  for (std::size_t expect = 0; expect < 3; ++expect) {
    ASSERT_EQ(client.lease(sweep, 3, "w0", &job),
              StoreClient::LeaseReply::kJob);
    EXPECT_EQ(job, expect);
  }
  EXPECT_EQ(client.lease(sweep, 3, "w0", &job),
            StoreClient::LeaseReply::kWait);

  EXPECT_TRUE(client.done(sweep, 0));
  EXPECT_TRUE(client.done(sweep, 1));
  // Still one lease outstanding -> WAIT, not EMPTY.
  EXPECT_EQ(client.lease(sweep, 3, "w0", &job),
            StoreClient::LeaseReply::kWait);
  EXPECT_TRUE(client.done(sweep, 2));
  EXPECT_EQ(client.lease(sweep, 3, "w0", &job),
            StoreClient::LeaseReply::kEmpty);

  // A mismatched job count is a config error, not a silent second queue.
  EXPECT_EQ(client.lease(sweep, 5, "w0", &job),
            StoreClient::LeaseReply::kError);

  std::map<std::string, std::uint64_t> pulls;
  ASSERT_TRUE(client.stats(sweep, &pulls));
  EXPECT_EQ(pulls.size(), 1u);
  EXPECT_EQ(pulls["w0"], 3u);
}

TEST(SweepService, ExpiredLeaseRequeuesTheJob) {
  ScratchDir dir;
  const std::string sock = dir.path() + "/sweep.sock";
  ServerOptions opt = server_options(sock, dir.path() + "/cache");
  opt.lease_timeout_s = 0.05;  // a crashed worker's lease expires fast
  ServerHandle server(opt);
  StoreClient client(client_options(sock));

  const std::uint64_t sweep = 0x11;
  std::size_t job = 999;
  ASSERT_EQ(client.lease(sweep, 1, "w0", &job), StoreClient::LeaseReply::kJob);
  EXPECT_EQ(job, 0u);
  // Immediately re-leasing WAITs: the lease is still live.
  EXPECT_EQ(client.lease(sweep, 1, "w1", &job),
            StoreClient::LeaseReply::kWait);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  // The worker "crashed": its expired lease goes back on the queue and a
  // second worker steals the job.
  ASSERT_EQ(client.lease(sweep, 1, "w1", &job), StoreClient::LeaseReply::kJob);
  EXPECT_EQ(job, 0u);
}

// Regression: the daemon took a lease back only when it expired (30 s by
// default), so a worker killed while holding one stalled the sweep that
// long. A closed connection now hands its unfinished leases back at once.
TEST(SweepService, ClosedConnectionRequeuesItsLeases) {
  ScratchDir dir;
  const std::string sock = dir.path() + "/sweep.sock";
  ServerHandle server(server_options(sock, dir.path() + "/cache"));

  const std::uint64_t sweep = 0x21;
  std::size_t job = 999;
  {
    StoreClient dying(client_options(sock));
    ASSERT_EQ(dying.lease(sweep, 1, "w0", &job),
              StoreClient::LeaseReply::kJob);
    EXPECT_EQ(job, 0u);
  }  // the worker dies holding job 0: its connection closes

  StoreClient survivor(client_options(sock));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  StoreClient::LeaseReply reply = StoreClient::LeaseReply::kWait;
  while (std::chrono::steady_clock::now() < deadline) {
    reply = survivor.lease(sweep, 1, "w1", &job);
    if (reply != StoreClient::LeaseReply::kWait) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(reply, StoreClient::LeaseReply::kJob);
  EXPECT_EQ(job, 0u);
}

// Regression: every request opened a fresh reconnect window, so with the
// daemon gone each GET of an assembly pass waited out the whole window
// (60 s by default). One outage spends the window once; later requests try
// one connect each and fail until one gets through.
TEST(SweepService, ReconnectWindowIsSpentOncePerOutage) {
  ScratchDir dir;
  const std::string sock = dir.path() + "/sweep.sock";
  StoreClient client(client_options(sock, /*window_s=*/0.2));
  using Clock = std::chrono::steady_clock;
  // Seconds that `gets` GETs take; with no server every one is a miss.
  auto time_gets = [&](int gets) {
    const Clock::time_point t0 = Clock::now();
    std::string text;
    for (int i = 0; i < gets; ++i) {
      EXPECT_EQ(client.get("trace=a\n", &text), exec::CacheLookup::kMiss);
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  EXPECT_GE(time_gets(1), 0.2);
  EXPECT_LT(time_gets(5), 0.2);

  // A daemon that comes up later is reached by the next request.
  ServerHandle server(server_options(sock, dir.path() + "/cache"));
  EXPECT_TRUE(client.ping());
}

TEST(SweepService, ResultsSurviveServerRestart) {
  ScratchDir dir;
  const std::string sock = dir.path() + "/sweep.sock";
  const std::string cache = dir.path() + "/cache";
  const std::string key = "trace=a\n";
  const std::string result = "ipc=2\n";

  auto server = std::make_unique<ServerHandle>(server_options(sock, cache));
  StoreClient client(client_options(sock, /*window_s=*/10));
  ASSERT_TRUE(client.put(key, result));

  // Hard restart: the socket disappears, then a fresh server binds it. The
  // client's next request rides the reconnect window instead of failing.
  server->shutdown();
  std::thread relauncher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    server = std::make_unique<ServerHandle>(server_options(sock, cache));
  });
  std::string text;
  EXPECT_EQ(client.get(key, &text), exec::CacheLookup::kHit);
  EXPECT_EQ(text, result);
  EXPECT_GE(client.counters().reconnects, 1u);
  relauncher.join();
}

// ------------------------------------------------- end-to-end with sweeps ---

exec::SweepGrid tiny_grid() {
  exec::SweepGrid grid;
  const auto profiles = workload::smoke_profiles();
  grid.profiles.assign(profiles.begin(), profiles.begin() + 2);
  grid.machines = {MachineConfig::two_cluster()};
  grid.schemes = {harness::SchemeSpec{steer::Scheme::kOp, 0},
                  harness::SchemeSpec{steer::Scheme::kVc, 2}};
  grid.budget = harness::SimBudget::smoke();
  return grid;
}

TEST(SweepService, NetworkedSweepBitIdenticalToLocal) {
  ScratchDir dir;
  const std::string sock = dir.path() + "/sweep.sock";
  ServerHandle server(server_options(sock, dir.path() + "/cache"));

  const exec::SweepGrid grid = tiny_grid();
  const std::uint64_t sweep_id = exec::grid_fingerprint(grid, 0);
  const std::size_t njobs = grid.profiles.size() * grid.machines.size();

  // Two workers lease jobs from the same queue and publish to the same
  // server-side cache, exactly like two --connect processes.
  auto worker = [&](const std::string& id) {
    StoreClient client(client_options(sock));
    NetResultStore store(&client);
    NetJobQueue queue(&client, sweep_id, njobs, id);
    exec::SweepOptions opt;
    opt.store = &store;
    opt.queue = &queue;
    return run_sweep(grid, opt);
  };
  exec::SweepResult r0{1, 1, 1}, r1{1, 1, 1};
  std::thread t0([&] { r0 = worker("w0"); });
  std::thread t1([&] { r1 = worker("w1"); });
  t0.join();
  t1.join();
  EXPECT_EQ(r0.jobs_pulled + r1.jobs_pulled, njobs);

  // Assembly pass: a store-only sweep serves every point from the server.
  StoreClient client(client_options(sock));
  NetResultStore store(&client);
  exec::SweepOptions assemble;
  assemble.store = &store;
  const exec::SweepResult assembled = run_sweep(grid, assemble);
  EXPECT_EQ(assembled.cache_hits, assembled.num_points());
  EXPECT_EQ(assembled.simulated, 0u);

  // The networked run must be bit-identical to a plain local serial sweep.
  const exec::SweepResult local = run_sweep(grid, exec::SweepOptions{});
  ASSERT_EQ(assembled.num_points(), local.num_points());
  for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
    for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
      const harness::RunResult& a = local.at(t, s);
      const harness::RunResult& b = assembled.at(t, s);
      EXPECT_EQ(a.trace, b.trace);
      EXPECT_EQ(a.scheme, b.scheme);
      EXPECT_EQ(a.ipc, b.ipc);
      EXPECT_EQ(a.cycles, b.cycles);
      EXPECT_EQ(a.committed_uops, b.committed_uops);
      EXPECT_EQ(a.iq_occupancy_hist, b.iq_occupancy_hist);
    }
  }

  // Per-worker pull tallies add up on the server side too.
  std::map<std::string, std::uint64_t> pulls;
  ASSERT_TRUE(client.stats(sweep_id, &pulls));
  std::uint64_t total = 0;
  for (const auto& [id, jobs] : pulls) total += jobs;
  EXPECT_EQ(total, njobs);
}

// Regression: the server took a LEASE's job count on trust and queued one
// entry per job, so one frame with a huge count (sscanf reads "-1" as
// 2^64-1) made the daemon allocate until it died. Counts above the ceiling
// get ERR, and the same server goes on serving.
TEST(SweepService, LeaseRefusesJobCountAboveCeiling) {
  ScratchDir dir;
  const std::string sock = dir.path() + "/sweep.sock";
  ServerHandle server(server_options(sock, dir.path() + "/cache"));
  StoreClient client(client_options(sock));

  std::size_t job = 999;
  // ASSERT, so a server that grants this one is never sent the next.
  ASSERT_EQ(client.lease(0x51, kMaxSweepJobs + 1, "w0", &job),
            StoreClient::LeaseReply::kError);
  EXPECT_EQ(client.lease(0x52, SIZE_MAX, "w0", &job),
            StoreClient::LeaseReply::kError);
  EXPECT_TRUE(client.ping());

  const exec::SweepGrid grid = tiny_grid();
  const std::size_t njobs = grid.profiles.size() * grid.machines.size();
  NetResultStore store(&client);
  NetJobQueue queue(&client, exec::grid_fingerprint(grid, 0), njobs, "w0");
  exec::SweepOptions opt;
  opt.store = &store;
  opt.queue = &queue;
  const exec::SweepResult sweep = run_sweep(grid, opt);
  EXPECT_EQ(sweep.jobs_pulled, njobs);
  EXPECT_EQ(sweep.simulated, sweep.num_points());
}

// Regression: vcsteer-sweepd took any --lease-timeout above 0, NaN
// included, and casting a NaN or out-of-range timeout to the steady clock's
// duration is undefined (on x86 every lease then expired at the next
// LEASE). The server refuses such a timeout before it binds. A refused
// start, for that or an unparsable listen address, leaves no cache
// directory behind.
TEST(SweepService, RejectsLeaseTimeoutItCannotRepresent) {
  ScratchDir dir;
  const std::string sock = dir.path() + "/sweep.sock";
  const std::string cache_dir = dir.path() + "/cache";
  for (const double t : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), 0.0, -1.0,
                         1e300}) {
    ServerOptions opt = server_options(sock, cache_dir);
    opt.lease_timeout_s = t;
    const SweepServer server(opt);
    EXPECT_FALSE(server.ok()) << t;
    EXPECT_NE(server.error().find("lease timeout"), std::string::npos) << t;
    EXPECT_FALSE(std::filesystem::exists(cache_dir)) << t;
  }
  {
    ServerOptions opt = server_options(sock, cache_dir);
    opt.listen = "no-port";
    const SweepServer server(opt);
    EXPECT_FALSE(server.ok());
    EXPECT_NE(server.error().find("address must be"), std::string::npos);
    EXPECT_FALSE(std::filesystem::exists(cache_dir));
  }
  for (const double t : {0.05, 30.0}) {
    ServerOptions opt = server_options(sock, cache_dir);
    opt.lease_timeout_s = t;
    const SweepServer server(opt);
    EXPECT_TRUE(server.ok()) << t << ": " << server.error();
  }
}

TEST(SweepService, GarbledStoredResultReadsAsCorrupt) {
  ScratchDir dir;
  const std::string sock = dir.path() + "/sweep.sock";
  ServerHandle server(server_options(sock, dir.path() + "/cache"));
  StoreClient client(client_options(sock));
  NetResultStore store(&client);

  // A result the decoder cannot parse: HIT on the wire, kCorrupt to the
  // sweep — which then re-simulates, exactly like a corrupt disk entry.
  ASSERT_TRUE(client.put("trace=a\n", "not a result\n"));
  harness::RunResult out;
  EXPECT_EQ(store.lookup("trace=a\n", &out), exec::CacheLookup::kCorrupt);
}

}  // namespace
}  // namespace vcsteer::net
