// vcsteer-sweepd — the sweep-service daemon.
//
//   vcsteer-sweepd --listen unix:/tmp/sweep.sock --cache-dir /path/cache
//
// Owns the authoritative result cache and the work-stealing lease queues
// for any number of clients (see src/net/server.hpp for the protocol);
// perfbench's sweepd-lease workload is the one that drives it.
// SIGINT/SIGTERM shut it down cleanly; SIGKILL at any instant is safe —
// results are fsync-rename durable and lease state is deliberately rebuilt
// from the first LEASE after a restart.
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/log.hpp"
#include "net/server.hpp"

namespace {

vcsteer::net::SweepServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --listen <unix:/path | [tcp:]host:port> --cache-dir DIR\n"
      "          [--lease-timeout SECONDS]\n"
      "\n"
      "Sweep-service daemon: serves GET/PUT result-store requests and\n"
      "LEASE/DONE work-stealing job queues to its clients.\n",
      argv0);
  return 2;
}

/// Seconds. The whole value must parse: "5x" exits 2, it never runs as 5.
/// The range (NaN and infinity included) is the SweepServer constructor's
/// check.
double parse_seconds(const char* flag, const char* v) {
  char* end = nullptr;
  const double s = std::strtod(v, &end);
  if (end == v || *end != '\0') {
    std::fprintf(stderr, "%s expects a number, got '%s'\n", flag, v);
    std::exit(2);
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  vcsteer::init_log_from_env();
  vcsteer::net::ServerOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--listen") {
      opt.listen = value("--listen");
    } else if (arg == "--cache-dir") {
      opt.cache_dir = value("--cache-dir");
    } else if (arg == "--lease-timeout") {
      opt.lease_timeout_s = parse_seconds("--lease-timeout",
                                          value("--lease-timeout"));
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (opt.listen.empty() || opt.cache_dir.empty()) return usage(argv[0]);

  vcsteer::net::SweepServer server(opt);
  if (!server.ok()) {
    std::fprintf(stderr, "vcsteer-sweepd: %s\n", server.error().c_str());
    return 1;
  }
  g_server = &server;
  ::signal(SIGINT, handle_signal);
  ::signal(SIGTERM, handle_signal);
  std::fprintf(stderr, "vcsteer-sweepd: serving %s (cache %s)\n",
               opt.listen.c_str(), opt.cache_dir.c_str());
  server.serve();
  std::fprintf(stderr, "vcsteer-sweepd: stopped\n");
  return 0;
}
