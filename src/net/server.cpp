#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "exec/cache.hpp"

namespace vcsteer::net {

namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Splits a PUT body `<key>--\n<result>` at the first line that is exactly
/// `--`. The key keeps its trailing newline (it is the canonical cache-key
/// text); the result is everything after the separator line.
bool split_entry(std::string_view body, std::string_view* key,
                 std::string_view* result) {
  if (body.rfind("--\n", 0) == 0) {
    *key = {};
    *result = body.substr(3);
    return true;
  }
  const std::size_t pos = body.find("\n--\n");
  if (pos == std::string_view::npos) return false;
  *key = body.substr(0, pos + 1);
  *result = body.substr(pos + 4);
  return true;
}

/// Per-sweep work-stealing state. Created lazily by the first LEASE and
/// rebuilt from scratch after a server restart: durable results live in the
/// cache, so a re-leased finished job is an instant client-side cache hit.
struct SweepState {
  std::size_t njobs = 0;
  std::deque<std::size_t> available;
  std::set<std::size_t> done;
  struct Lease {
    std::size_t job;
    Clock::time_point deadline;
    std::uint64_t conn;  ///< Conn::id of the connection it was granted on
  };
  std::vector<Lease> leases;
  /// client id -> jobs granted (the --summary-json per-worker tally).
  std::map<std::string, std::uint64_t> pulls;
};

struct Conn {
  std::uint64_t id = 0;  ///< unique per accepted connection
  int fd = -1;
  FrameReader reader;
  std::string outbuf;
};

}  // namespace

struct SweepServer::Impl {
  ServerOptions opt;
  exec::ResultCache cache;
  std::vector<Conn> conns;
  std::map<std::uint64_t, SweepState> sweeps;
  std::uint64_t next_conn_id = 1;

  explicit Impl(const ServerOptions& o) : opt(o), cache(o.cache_dir) {}

  /// Drops every lease `gone` selects and puts its job back on the queue
  /// unless it is done, logging `why` for each job requeued.
  template <class Pred>
  static void requeue(SweepState& sweep, Pred gone, const char* why) {
    auto it = sweep.leases.begin();
    while (it != sweep.leases.end()) {
      if (!gone(*it)) {
        ++it;
        continue;
      }
      if (sweep.done.count(it->job) == 0) {
        VCSTEER_LOG_WARN("sweepd: %s; requeueing job %zu", why, it->job);
        sweep.available.push_back(it->job);
      }
      it = sweep.leases.erase(it);
    }
  }

  void reclaim_expired(SweepState& sweep, Clock::time_point now) {
    requeue(sweep,
            [now](const SweepState::Lease& l) { return l.deadline <= now; },
            "lease expired");
  }

  /// A closed connection's worker is gone (exited or killed): its
  /// unfinished leases go back on the queue now, not at their deadline.
  void release_leases(std::uint64_t conn) {
    for (auto& entry : sweeps) {
      requeue(entry.second,
              [conn](const SweepState::Lease& l) { return l.conn == conn; },
              "connection closed");
    }
  }

  /// Handles one request payload, appending reply frames to conn.outbuf.
  void handle(Conn& conn, std::string_view payload) {
    std::string_view line, body;
    split_verb_line(payload, &line, &body);
    std::string reply;

    if (line == "PING") {
      reply = "PONG\n";
    } else if (line == "GET") {
      std::string text;
      switch (cache.lookup_text(std::string(body), &text)) {
        case exec::CacheLookup::kHit:
          reply = "HIT\n" + text;
          break;
        case exec::CacheLookup::kMiss:
          reply = "MISS\n";
          break;
        case exec::CacheLookup::kCorrupt:
          reply = "CORRUPT\n";
          break;
      }
    } else if (line == "PUT") {
      std::string_view key, result;
      if (!split_entry(body, &key, &result)) {
        reply = "ERR PUT body has no -- separator\n";
      } else {
        cache.store_text(std::string(key), std::string(result));
        reply = "OK\n";
      }
    } else if (line.rfind("LEASE ", 0) == 0) {
      reply = handle_lease(line.substr(6), conn.id);
    } else if (line.rfind("DONE ", 0) == 0) {
      reply = handle_done(line.substr(5));
    } else if (line.rfind("STATS ", 0) == 0) {
      reply = handle_stats(line.substr(6));
    } else {
      reply = "ERR unknown verb\n";
    }
    append_frame(&conn.outbuf, reply);
  }

  std::string handle_lease(std::string_view args, std::uint64_t conn) {
    std::uint64_t sweep_id = 0;
    std::uint64_t njobs = 0;
    char client[128] = {0};
    if (std::sscanf(std::string(args).c_str(), "%" SCNx64 " %" SCNu64 " %127s",
                    &sweep_id, &njobs, client) != 3 ||
        njobs == 0) {
      return "ERR LEASE wants <sweep-hex> <njobs> <client-id>\n";
    }
    // sscanf reads "-1" as 2^64-1 too; either way the count is refused
    // before the queue grows by it.
    if (njobs > kMaxSweepJobs) {
      return "ERR LEASE job count above " + std::to_string(kMaxSweepJobs) +
             "\n";
    }
    SweepState& sweep = sweeps[sweep_id];
    if (sweep.njobs == 0) {
      sweep.njobs = static_cast<std::size_t>(njobs);
      for (std::size_t j = 0; j < sweep.njobs; ++j) {
        sweep.available.push_back(j);
      }
      VCSTEER_LOG_INFO("sweepd: sweep %016" PRIx64 " opened with %zu jobs",
                       sweep_id, sweep.njobs);
    } else if (sweep.njobs != njobs) {
      return "ERR sweep job-count mismatch\n";
    }
    const Clock::time_point now = Clock::now();
    reclaim_expired(sweep, now);
    if (sweep.available.empty()) {
      return sweep.done.size() >= sweep.njobs ? "EMPTY\n" : "WAIT\n";
    }
    const std::size_t job = sweep.available.front();
    sweep.available.pop_front();
    sweep.leases.push_back(
        {job,
         now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(opt.lease_timeout_s)),
         conn});
    sweep.pulls[client] += 1;
    return "JOB " + std::to_string(job) + "\n";
  }

  std::string handle_done(std::string_view args) {
    std::uint64_t sweep_id = 0;
    std::uint64_t job = 0;
    if (std::sscanf(std::string(args).c_str(), "%" SCNx64 " %" SCNu64,
                    &sweep_id, &job) != 2) {
      return "ERR DONE wants <sweep-hex> <job>\n";
    }
    const auto it = sweeps.find(sweep_id);
    if (it == sweeps.end() || job >= it->second.njobs) {
      return "ERR unknown sweep or job\n";
    }
    SweepState& sweep = it->second;
    sweep.done.insert(static_cast<std::size_t>(job));
    auto lease = sweep.leases.begin();
    while (lease != sweep.leases.end()) {
      lease = lease->job == job ? sweep.leases.erase(lease) : lease + 1;
    }
    return "OK\n";
  }

  std::string handle_stats(std::string_view args) {
    std::uint64_t sweep_id = 0;
    if (std::sscanf(std::string(args).c_str(), "%" SCNx64, &sweep_id) != 1) {
      return "ERR STATS wants <sweep-hex>\n";
    }
    std::string reply = "STATS\n";
    const auto it = sweeps.find(sweep_id);
    if (it != sweeps.end()) {
      for (const auto& [client, jobs] : it->second.pulls) {
        reply += client + " " + std::to_string(jobs) + "\n";
      }
    }
    return reply;
  }
};

SweepServer::SweepServer(const ServerOptions& opt) {
  // A NaN or out-of-range timeout would make the deadline cast undefined.
  if (!(opt.lease_timeout_s > 0 && opt.lease_timeout_s <= kMaxLeaseTimeoutS)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "lease timeout %g s is not in (0, %g]", opt.lease_timeout_s,
                  kMaxLeaseTimeoutS);
    error_ = buf;
    return;
  }
  Address addr;
  std::string err;
  if (!parse_address(opt.listen, &addr, &err)) {
    error_ = err;
    return;
  }
  if (::pipe(stop_pipe_) != 0) {
    error_ = std::string("pipe: ") + std::strerror(errno);
    return;
  }
  set_nonblocking(stop_pipe_[0]);

  int fd = -1;
  if (addr.is_unix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      error_ = std::string("socket: ") + std::strerror(errno);
      return;
    }
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (addr.path.size() >= sizeof(sa.sun_path)) {
      error_ = "unix socket path too long: " + addr.path;
      ::close(fd);
      return;
    }
    std::strncpy(sa.sun_path, addr.path.c_str(), sizeof(sa.sun_path) - 1);
    ::unlink(addr.path.c_str());  // stale socket from a crashed server
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      error_ = "bind " + addr.path + ": " + std::strerror(errno);
      ::close(fd);
      return;
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      error_ = std::string("socket: ") + std::strerror(errno);
      return;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(addr.port);
    if (::inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
      error_ = "bad listen host (numeric IPv4 only): " + addr.host;
      ::close(fd);
      return;
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      error_ = "bind " + opt.listen + ": " + std::strerror(errno);
      ::close(fd);
      return;
    }
  }
  if (::listen(fd, 64) != 0) {
    error_ = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return;
  }
  set_nonblocking(fd);
  listen_fd_ = fd;
  // Built last: its ResultCache creates the cache directory, which a
  // refused start must not leave behind.
  impl_ = new Impl(opt);
}

SweepServer::~SweepServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (impl_ != nullptr) {
    for (Conn& c : impl_->conns) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  if (stop_pipe_[0] >= 0) ::close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) ::close(stop_pipe_[1]);
  // Only a socket this server bound is its to remove.
  Address addr;
  std::string err;
  if (ok() && parse_address(impl_->opt.listen, &addr, &err) && addr.is_unix) {
    ::unlink(addr.path.c_str());
  }
  delete impl_;
}

void SweepServer::stop() {
  if (stop_pipe_[1] >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
  }
}

void SweepServer::serve() {
  if (!ok()) return;
  std::vector<Conn>& conns = impl_->conns;
  char buf[64 * 1024];

  for (;;) {
    std::vector<pollfd> pfds;
    pfds.push_back({stop_pipe_[0], POLLIN, 0});
    pfds.push_back({listen_fd_, POLLIN, 0});
    for (const Conn& c : conns) {
      short events = POLLIN;
      if (!c.outbuf.empty()) events |= POLLOUT;
      pfds.push_back({c.fd, events, 0});
    }
    if (::poll(pfds.data(), pfds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      VCSTEER_LOG_WARN("sweepd: poll: %s", std::strerror(errno));
      return;
    }
    if (pfds[0].revents != 0) return;  // stop() requested

    if (pfds[1].revents & POLLIN) {
      for (;;) {
        const int cfd = ::accept(listen_fd_, nullptr, nullptr);
        if (cfd < 0) break;
        set_nonblocking(cfd);
        Conn c;
        c.id = impl_->next_conn_id++;
        c.fd = cfd;
        conns.push_back(std::move(c));
      }
    }

    // pfds[i + 2] maps to conns[i] as polled; conns mutated only after.
    std::vector<std::size_t> dead;
    for (std::size_t i = 0; i + 2 < pfds.size(); ++i) {
      Conn& c = conns[i];
      const short re = pfds[i + 2].revents;
      bool drop = (re & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      if (!drop && (re & POLLIN)) {
        for (;;) {
          const ssize_t n = ::read(c.fd, buf, sizeof(buf));
          if (n > 0) {
            c.reader.feed(buf, static_cast<std::size_t>(n));
            continue;
          }
          if (n == 0) drop = true;  // peer closed
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
              errno != EINTR) {
            drop = true;
          }
          break;
        }
        std::string payload;
        while (c.reader.next(&payload)) impl_->handle(c, payload);
        if (c.reader.broken()) {
          VCSTEER_LOG_WARN("sweepd: dropping protocol-broken connection");
          drop = true;
        }
      }
      if (!drop && !c.outbuf.empty()) {
        const ssize_t n =
            ::send(c.fd, c.outbuf.data(), c.outbuf.size(), MSG_NOSIGNAL);
        if (n > 0) {
          c.outbuf.erase(0, static_cast<std::size_t>(n));
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          drop = true;
        }
      }
      if (drop) {
        ::close(c.fd);
        c.fd = -1;
        impl_->release_leases(c.id);
        dead.push_back(i);
      }
    }
    for (auto it = dead.rbegin(); it != dead.rend(); ++it) {
      conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(*it));
    }
  }
}

}  // namespace vcsteer::net
