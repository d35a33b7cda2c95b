// Tests for the multi-process worker launcher: spawn/monitor/reap, stderr
// streaming, bounded crash retries, and the per-attempt environment the
// bench driver's crash-injection knobs key off. Workers are /bin/sh
// scripts, so every failure mode (clean exit, non-zero exit, SIGKILL,
// exec failure) is exercised with real processes.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/launcher.hpp"
#include "scratch_dir.hpp"

namespace vcsteer::exec {
namespace {

using vcsteer::testing::ScratchDir;

std::vector<std::string> sh(const std::string& script) {
  return {"/bin/sh", "-c", script};
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Launcher, RunsEveryWorkerOnce) {
  ScratchDir dir;
  LaunchOptions opt;
  for (int i = 0; i < 3; ++i) {
    opt.worker_argv.push_back(
        sh("echo ran > " + dir.path() + "/w" + std::to_string(i)));
  }
  const LaunchReport report = launch_workers(opt);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.failed_workers(), 0u);
  ASSERT_EQ(report.workers.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const WorkerStatus& w = report.workers[i];
    EXPECT_EQ(w.index, static_cast<std::uint32_t>(i));
    EXPECT_EQ(w.attempts, 1u);
    EXPECT_TRUE(w.ok);
    EXPECT_EQ(w.exit_code, 0);
    EXPECT_EQ(w.term_signal, 0);
    EXPECT_TRUE(std::filesystem::exists(dir.path() + "/w" + std::to_string(i)));
  }
}

TEST(Launcher, StreamsWorkerStderrWithTheRightIndex) {
  LaunchOptions opt;
  opt.worker_argv.push_back(sh("echo from-zero >&2"));
  opt.worker_argv.push_back(sh("echo from-one >&2"));
  std::vector<std::string> collected(2);
  opt.on_output = [&](std::uint32_t w, std::string_view chunk) {
    ASSERT_LT(w, collected.size());
    collected[w].append(chunk);
  };
  const LaunchReport report = launch_workers(opt);
  EXPECT_TRUE(report.ok);
  EXPECT_NE(collected[0].find("from-zero"), std::string::npos);
  EXPECT_NE(collected[1].find("from-one"), std::string::npos);
}

TEST(Launcher, RetriesAWorkerKilledBySignal) {
  ScratchDir dir;
  // First attempt SIGKILLs itself; the retry sees the marker and succeeds.
  const std::string marker = dir.path() + "/marker";
  LaunchOptions opt;
  opt.worker_argv.push_back(sh("if [ -e " + marker +
                               " ]; then exit 0; else : > " + marker +
                               "; kill -KILL $$; fi"));
  struct Attempt {
    unsigned attempts;
    bool ok;
    int term_signal;
    bool will_retry;
  };
  std::vector<Attempt> attempts;
  opt.on_attempt = [&](const WorkerStatus& s, bool will_retry) {
    attempts.push_back({s.attempts, s.ok, s.term_signal, will_retry});
  };
  const LaunchReport report = launch_workers(opt);
  EXPECT_TRUE(report.ok);
  ASSERT_EQ(report.workers.size(), 1u);
  EXPECT_EQ(report.workers[0].attempts, 2u);
  EXPECT_TRUE(report.workers[0].ok);
  ASSERT_EQ(attempts.size(), 2u);
  EXPECT_FALSE(attempts[0].ok);
  EXPECT_EQ(attempts[0].term_signal, SIGKILL);
  EXPECT_TRUE(attempts[0].will_retry);
  EXPECT_TRUE(attempts[1].ok);
  EXPECT_FALSE(attempts[1].will_retry);
}

TEST(Launcher, PersistentFailureExhaustsBoundedRetries) {
  LaunchOptions opt;
  opt.worker_argv.push_back(sh("exit 3"));
  opt.worker_argv.push_back(sh("exit 0"));
  opt.max_retries = 1;
  const LaunchReport report = launch_workers(opt);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.failed_workers(), 1u);
  ASSERT_EQ(report.workers.size(), 2u);
  EXPECT_EQ(report.workers[0].attempts, 2u);  // 1 + max_retries, no more
  EXPECT_FALSE(report.workers[0].ok);
  EXPECT_EQ(report.workers[0].exit_code, 3);
  EXPECT_EQ(report.workers[0].term_signal, 0);
  EXPECT_TRUE(report.workers[1].ok);  // one bad worker doesn't sink the rest
}

TEST(Launcher, AttemptEnvCountsUpAcrossRetries) {
  ScratchDir dir;
  const std::string log = dir.path() + "/attempts";
  const std::string marker = dir.path() + "/marker";
  LaunchOptions opt;
  opt.worker_argv.push_back(
      sh("echo $VCSTEER_LAUNCH_ATTEMPT >> " + log + "; if [ -e " + marker +
         " ]; then exit 0; else : > " + marker + "; exit 1; fi"));
  const LaunchReport report = launch_workers(opt);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(slurp(log), "1\n2\n");
}

// Regression: workers inherited the parent's stdout, so every launched
// bench worker printed its tables into the parent's output. Only stderr
// reaches the parent now, through the on_output pipe.
TEST(Launcher, WorkerStdoutDoesNotReachTheParent) {
  ScratchDir dir;
  const std::string captured = dir.path() + "/stdout";
  std::fflush(stdout);
  const int saved = ::dup(STDOUT_FILENO);
  ASSERT_GE(saved, 0);
  const int fd = ::open(captured.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  ::dup2(fd, STDOUT_FILENO);
  ::close(fd);

  LaunchOptions opt;
  opt.worker_argv.push_back(sh("echo table-row; echo progress >&2"));
  std::string output;
  opt.on_output = [&](std::uint32_t, std::string_view chunk) {
    output.append(chunk);
  };
  const LaunchReport report = launch_workers(opt);
  std::fflush(stdout);
  ::dup2(saved, STDOUT_FILENO);
  ::close(saved);

  EXPECT_TRUE(report.ok);
  EXPECT_NE(output.find("progress"), std::string::npos);
  EXPECT_EQ(output.find("table-row"), std::string::npos);
  EXPECT_EQ(slurp(captured), "");
}

// Regression (EOF-hang): a worker that hands its stderr write end to a
// grandchild outliving it produces no pipe EOF at all. The old monitor
// reaped only on EOF, so launch_workers() blocked until the grandchild
// died (here: 30 s); the WNOHANG reap pass must return as soon as the
// worker itself exits.
TEST(Launcher, GrandchildHoldingStderrOpenDoesNotHangTheMonitor) {
  LaunchOptions opt;
  // `sleep 30 &` inherits fd 2 (the pipe write end) and outlives the shell.
  opt.worker_argv.push_back(sh("sleep 30 & echo spawned >&2; exit 0"));
  std::string output;
  opt.on_output = [&](std::uint32_t, std::string_view chunk) {
    output.append(chunk);
  };
  const auto t0 = std::chrono::steady_clock::now();
  const LaunchReport report = launch_workers(opt);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(report.ok);
  ASSERT_EQ(report.workers.size(), 1u);
  EXPECT_TRUE(report.workers[0].ok);
  EXPECT_EQ(report.workers[0].attempts, 1u);
  // Output written before the worker exited still arrives.
  EXPECT_NE(output.find("spawned"), std::string::npos);
  EXPECT_LT(elapsed, 10.0) << "monitor waited for the grandchild's pipe EOF";
}

// Regression (EOF-starvation): a worker that closes its own stderr and keeps
// running used to trip the old monitor into a *blocking* waitpid on EOF,
// freezing every other worker's output and retries until it exited. Exit
// detection must be independent of the pipe's state.
TEST(Launcher, WorkerClosingStderrStillRunsToCompletion) {
  ScratchDir dir;
  const std::string marker = dir.path() + "/done";
  LaunchOptions opt;
  opt.worker_argv.push_back(
      sh("exec 2>&-; sleep 1; echo ran > " + marker + "; exit 0"));
  // A sibling that keeps producing output while worker 0's pipe is at EOF:
  // under the old design its chunks queued behind the blocked waitpid.
  opt.worker_argv.push_back(
      sh("i=0; while [ $i -lt 5 ]; do echo tick >&2; i=$((i+1)); done"));
  std::string sibling_output;
  opt.on_output = [&](std::uint32_t w, std::string_view chunk) {
    if (w == 1) sibling_output.append(chunk);
  };
  const LaunchReport report = launch_workers(opt);
  EXPECT_TRUE(report.ok);
  ASSERT_EQ(report.workers.size(), 2u);
  EXPECT_TRUE(report.workers[0].ok);
  EXPECT_EQ(report.workers[0].attempts, 1u);
  EXPECT_TRUE(std::filesystem::exists(marker));
  EXPECT_NE(sibling_output.find("tick"), std::string::npos);
}

TEST(Launcher, ExecFailureReports127AndDoesNotRetryForever) {
  LaunchOptions opt;
  opt.worker_argv.push_back({"/nonexistent/vcsteer-no-such-binary"});
  opt.max_retries = 1;
  std::string output;
  opt.on_output = [&](std::uint32_t, std::string_view chunk) {
    output.append(chunk);
  };
  const LaunchReport report = launch_workers(opt);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.workers.size(), 1u);
  EXPECT_EQ(report.workers[0].exit_code, 127);
  EXPECT_EQ(report.workers[0].attempts, 2u);
  EXPECT_NE(output.find("exec"), std::string::npos);
}

}  // namespace
}  // namespace vcsteer::exec
