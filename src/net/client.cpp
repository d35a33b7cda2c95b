#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>

#include "common/log.hpp"

namespace vcsteer::net {

namespace {

using Clock = std::chrono::steady_clock;

Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

std::string lease_line(std::uint64_t sweep_id, std::size_t njobs,
                       const std::string& client_id) {
  char head[64];
  std::snprintf(head, sizeof(head), "LEASE %016" PRIx64 " %zu ", sweep_id,
                njobs);
  return std::string(head) + client_id + "\n";
}

}  // namespace

StoreClient::StoreClient(const ClientOptions& opt) : opt_(opt) {}

StoreClient::~StoreClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool StoreClient::connect_locked() {
  Address addr;
  std::string err;
  if (!parse_address(opt_.connect, &addr, &err)) {
    VCSTEER_LOG_WARN("store client: %s", err.c_str());
    return false;
  }
  int fd = -1;
  if (addr.is_unix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (addr.path.size() >= sizeof(sa.sun_path)) {
      ::close(fd);
      return false;
    }
    std::strncpy(sa.sun_path, addr.path.c_str(), sizeof(sa.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      ::close(fd);
      return false;
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(addr.port);
    std::string host = addr.host;
    if (host == "localhost") host = "127.0.0.1";
    if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
      VCSTEER_LOG_WARN("store client: numeric IPv4 hosts only, got \"%s\"",
                       addr.host.c_str());
      ::close(fd);
      return false;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      ::close(fd);
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  fd_ = fd;
  reader_ = FrameReader{};  // a new connection starts a new frame stream
  return true;
}

bool StoreClient::send_all_locked(std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool StoreClient::round_trip_locked(std::string_view framed,
                                    std::string* reply) {
  if (fd_ < 0 && !connect_locked()) return false;
  if (!send_all_locked(framed)) return false;
  char buf[64 * 1024];
  while (!reader_.next(reply)) {
    if (reader_.broken()) {
      VCSTEER_LOG_WARN("store client: protocol-broken reply stream");
      return false;
    }
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      reader_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF or hard error: the server went away
  }
  return true;
}

bool StoreClient::request(std::string_view payload, std::string* reply) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string framed;
  append_frame(&framed, payload);

  double backoff_s = 0.05;
  for (;;) {
    if (round_trip_locked(framed, reply)) {
      outage_deadline_.reset();
      return true;
    }
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    const Clock::time_point now = Clock::now();
    if (!outage_deadline_) {
      outage_deadline_ = now + seconds(opt_.reconnect_window_s);
    }
    if (now >= *outage_deadline_) return false;
    ++counters_.reconnects;
    std::this_thread::sleep_for(
        std::min(seconds(backoff_s), *outage_deadline_ - now));
    backoff_s = std::min(backoff_s * 2, 1.0);
  }
}

bool StoreClient::ping() {
  std::string reply;
  return request("PING\n", &reply) && reply == "PONG\n";
}

exec::CacheLookup StoreClient::get(const std::string& key,
                                   std::string* result_text) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.gets;
  }
  std::string reply;
  if (!request("GET\n" + key, &reply)) return exec::CacheLookup::kMiss;
  std::string_view line, body;
  split_verb_line(reply, &line, &body);
  if (line == "HIT") {
    result_text->assign(body);
    return exec::CacheLookup::kHit;
  }
  if (line == "CORRUPT") return exec::CacheLookup::kCorrupt;
  return exec::CacheLookup::kMiss;
}

bool StoreClient::put(const std::string& key, const std::string& result_text) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.puts;
  }
  std::string reply;
  if (!request("PUT\n" + key + "--\n" + result_text, &reply)) return false;
  return reply == "OK\n";
}

StoreClient::LeaseReply StoreClient::lease(std::uint64_t sweep_id,
                                           std::size_t njobs,
                                           const std::string& client_id,
                                           std::size_t* job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.leases;
  }
  std::string reply;
  if (!request(lease_line(sweep_id, njobs, client_id), &reply)) {
    return LeaseReply::kError;
  }
  std::string_view line, body;
  split_verb_line(reply, &line, &body);
  if (line.rfind("JOB ", 0) == 0) {
    *job = static_cast<std::size_t>(
        std::strtoull(std::string(line.substr(4)).c_str(), nullptr, 10));
    return LeaseReply::kJob;
  }
  if (line == "WAIT") return LeaseReply::kWait;
  if (line == "EMPTY") return LeaseReply::kEmpty;
  VCSTEER_LOG_WARN("store client: LEASE failed: %.*s",
                   static_cast<int>(line.size()), line.data());
  return LeaseReply::kError;
}

bool StoreClient::done(std::uint64_t sweep_id, std::size_t job) {
  char line[64];
  std::snprintf(line, sizeof(line), "DONE %016" PRIx64 " %zu\n", sweep_id,
                job);
  std::string reply;
  return request(line, &reply) && reply == "OK\n";
}

bool StoreClient::stats(std::uint64_t sweep_id,
                        std::map<std::string, std::uint64_t>* pulls) {
  char line[64];
  std::snprintf(line, sizeof(line), "STATS %016" PRIx64 "\n", sweep_id);
  std::string reply;
  if (!request(line, &reply)) return false;
  std::string_view verb, body;
  split_verb_line(reply, &verb, &body);
  if (verb != "STATS") return false;
  pulls->clear();
  std::istringstream rows{std::string(body)};
  std::string client;
  std::uint64_t jobs = 0;
  while (rows >> client >> jobs) (*pulls)[client] = jobs;
  return true;
}

StoreClient::Counters StoreClient::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

bool NetJobQueue::acquire(std::size_t* job) {
  for (;;) {
    switch (client_->lease(sweep_id_, njobs_, client_id_, job)) {
      case StoreClient::LeaseReply::kJob:
        return true;
      case StoreClient::LeaseReply::kWait:
        // Someone holds the remaining leases; poll until they finish or
        // their leases expire back onto the queue.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      case StoreClient::LeaseReply::kEmpty:
        return false;
      case StoreClient::LeaseReply::kError:
        // Reconnect window exhausted: report the queue drained.
        return false;
    }
  }
}

void NetJobQueue::complete(std::size_t job) {
  if (!client_->done(sweep_id_, job)) {
    VCSTEER_LOG_WARN("store client: DONE for job %zu lost; its lease will "
                     "expire and the job may be re-run (bit-identically)",
                     job);
  }
}

}  // namespace vcsteer::net
