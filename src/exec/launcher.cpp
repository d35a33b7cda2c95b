#include "exec/launcher.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"

namespace vcsteer::exec {

namespace {

struct Worker {
  WorkerStatus status;
  pid_t pid = -1;
  int fd = -1;  // read end of the stderr pipe; -1 while not running
};

/// How often the monitor wakes up to reap exited workers when no pipe
/// activity arrives. Exit detection must NOT depend on pipe EOF: a worker
/// that closes its stderr keeps running past EOF, and a worker whose pipe
/// write end leaked to a grandchild produces no EOF at all — both are
/// caught by the periodic waitpid(WNOHANG) pass instead.
constexpr int kReapPollMs = 50;

/// Forks and execs one attempt with its stderr routed into a pipe whose
/// read end lands in `w->fd` and its stdout discarded. Returns false when
/// the pipe or fork itself fails (the attempt is still counted so retries
/// stay bounded).
bool spawn_attempt(const std::vector<std::string>& args, Worker* w) {
  int fds[2];
  if (::pipe(fds) != 0) {
    ++w->status.attempts;
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    ++w->status.attempts;
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    ::dup2(fds[1], STDERR_FILENO);
    ::close(fds[1]);
    // Only stderr reaches the parent: output a worker prints on stdout
    // (a bench's tables) would interleave with the parent's own.
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      ::dup2(null_fd, STDOUT_FILENO);
      ::close(null_fd);
    }
    char attempt[16];
    std::snprintf(attempt, sizeof(attempt), "%u", w->status.attempts + 1);
    ::setenv("VCSTEER_LAUNCH_ATTEMPT", attempt, 1);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execvp(argv[0], argv.data());
    // exec failed: the message lands on the pipe, the parent sees 127.
    std::fprintf(stderr, "exec %s: %s\n", argv[0], std::strerror(errno));
    ::_exit(127);
  }
  ::close(fds[1]);
  // Non-blocking reads: the monitor drains whatever is buffered and must
  // never block on a pipe a grandchild still holds open after the worker
  // itself has been reaped.
  const int flags = ::fcntl(fds[0], F_GETFL);
  if (flags >= 0) ::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK);
  w->pid = pid;
  w->fd = fds[0];
  ++w->status.attempts;
  return true;
}

/// Spawns the worker's next attempt, burning retry budget on spawn failures
/// themselves (pipe/fork exhaustion — most plausible exactly when launching
/// many workers). Each failed spawn is reported through on_attempt like any
/// other failed attempt (exit_code -1, no signal), so a worker that never
/// managed to run still surfaces a per-worker diagnostic.
bool spawn_with_budget(const LaunchOptions& opt, std::size_t slot, Worker* w) {
  for (;;) {
    if (spawn_attempt(opt.worker_argv[slot], w)) return true;
    w->status.ok = false;
    w->status.exit_code = -1;
    w->status.term_signal = 0;
    const bool will_retry = w->status.attempts < 1 + opt.max_retries;
    if (opt.on_attempt) opt.on_attempt(w->status, will_retry);
    if (!will_retry) return false;
  }
}

/// Marks the worker's last attempt from a waitpid status word.
void record_exit(int wait_status, WorkerStatus* s) {
  if (WIFEXITED(wait_status)) {
    s->exit_code = WEXITSTATUS(wait_status);
    s->term_signal = 0;
    s->ok = s->exit_code == 0;
  } else if (WIFSIGNALED(wait_status)) {
    s->exit_code = -1;
    s->term_signal = WTERMSIG(wait_status);
    s->ok = false;
  } else {
    s->exit_code = -1;
    s->term_signal = 0;
    s->ok = false;
  }
}

}  // namespace

LaunchReport launch_workers(const LaunchOptions& opt) {
  VCSTEER_CHECK_MSG(!opt.worker_argv.empty(), "launch_workers needs workers");
  for (const auto& argv : opt.worker_argv) {
    VCSTEER_CHECK_MSG(!argv.empty(), "worker argv needs at least argv[0]");
  }

  std::vector<Worker> workers(opt.worker_argv.size());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    workers[i].status.index = static_cast<std::uint32_t>(i);
    spawn_with_budget(opt, i, &workers[i]);
  }

  // Event loop. Pipe readability only drives output streaming; worker exit
  // is detected by a periodic waitpid(WNOHANG) pass so it never depends on
  // the pipe reaching EOF — a worker that closes or redirects its stderr, or
  // leaks the write end to a grandchild that outlives it, is still reaped
  // promptly (the old blocking-waitpid-on-EOF design hung forever on the
  // grandchild case and starved the monitor on the close-stderr case).
  char buf[4096];
  // Drains whatever the pipe holds right now; returns true when the pipe is
  // finished (EOF or unrecoverable error) and has been closed.
  auto drain_pipe = [&](Worker& w) {
    while (w.fd >= 0) {
      const ssize_t got = ::read(w.fd, buf, sizeof(buf));
      if (got > 0) {
        if (opt.on_output) {
          opt.on_output(w.status.index,
                        std::string_view(buf, static_cast<std::size_t>(got)));
        }
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
      ::close(w.fd);  // EOF or unreadable pipe
      w.fd = -1;
      return true;
    }
    return true;
  };
  std::vector<pollfd> pfds;
  std::vector<std::size_t> pfd_owner;
  for (;;) {
    pfds.clear();
    pfd_owner.clear();
    bool any_running = false;
    for (std::size_t i = 0; i < workers.size(); ++i) {
      any_running = any_running || workers[i].pid >= 0;
      if (workers[i].fd >= 0 && workers[i].pid >= 0) {
        pfds.push_back(pollfd{workers[i].fd, POLLIN, 0});
        pfd_owner.push_back(i);
      }
    }
    if (!any_running) break;
    const int n = ::poll(pfds.empty() ? nullptr : pfds.data(),
                         static_cast<nfds_t>(pfds.size()), kReapPollMs);
    if (n < 0 && errno != EINTR) break;  // poll failed; reap what exists
    if (n > 0) {
      for (std::size_t p = 0; p < pfds.size(); ++p) {
        if (pfds[p].revents != 0) drain_pipe(workers[pfd_owner[p]]);
      }
    }
    // Reap pass: WNOHANG so a still-running worker (with or without a live
    // pipe) never blocks the monitor or its siblings.
    for (std::size_t i = 0; i < workers.size(); ++i) {
      Worker& w = workers[i];
      if (w.pid < 0) continue;
      int wait_status = 0;
      pid_t reaped;
      do {
        reaped = ::waitpid(w.pid, &wait_status, WNOHANG);
      } while (reaped < 0 && errno == EINTR);
      if (reaped == 0) continue;  // still running
      w.pid = -1;
      if (reaped < 0) {
        w.status.ok = false;
      } else {
        record_exit(wait_status, &w.status);
      }
      if (w.fd >= 0) {
        // Forward output the dead worker left in the pipe, then close it
        // even when a grandchild still holds the write end — anything a
        // straggler writes after its parent's verdict is not this
        // worker's output.
        drain_pipe(w);
        if (w.fd >= 0) {
          ::close(w.fd);
          w.fd = -1;
        }
      }
      const bool will_retry =
          !w.status.ok && w.status.attempts < 1 + opt.max_retries;
      if (opt.on_attempt) opt.on_attempt(w.status, will_retry);
      if (will_retry) spawn_with_budget(opt, i, &w);
    }
  }

  LaunchReport report;
  report.ok = true;
  report.workers.reserve(workers.size());
  for (const Worker& w : workers) {
    report.ok = report.ok && w.status.ok;
    report.workers.push_back(w.status);
  }
  return report;
}

}  // namespace vcsteer::exec
