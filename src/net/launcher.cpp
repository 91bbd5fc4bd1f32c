#include "net/launcher.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <vector>

#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "common/check.hpp"
#include "common/stopwatch.hpp"

namespace hqr::net {

namespace {

[[noreturn]] void child_main(int rank, Transport& transport,
                             const std::function<int(Comm&)>& rank_main) {
#ifdef __linux__
  // Die with the parent: nothing a rank does should outlive the launcher.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  int code = 1;
  try {
    // Mesh wiring happens inside the guard: a transport that cannot reach
    // its peers (rendezvous timeout, refused connect) exits nonzero and
    // the parent reports it, instead of unwinding into the fork's copy of
    // the parent stack.
    Comm comm(rank, transport.connect_rank(rank));
    code = rank_main(comm);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[rank %d] fatal: %s\n", rank, e.what());
    std::fflush(stderr);
    code = 1;
  } catch (...) {
    std::fprintf(stderr, "[rank %d] fatal: unknown exception\n", rank);
    std::fflush(stderr);
    code = 1;
  }
  // _exit, not exit: the child shares the parent's atexit state and stdio
  // with siblings; run no global destructors in a forked worker.
  std::fflush(nullptr);
  ::_exit(code);
}

}  // namespace

namespace detail {

void record_exit(RankExit& e, int status) {
  if (WIFEXITED(status)) {
    e.exited = true;
    e.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    e.signaled = true;
    e.term_signal = WTERMSIG(status);
  }
}

void wait_for_exit(const std::vector<pid_t>& pids, std::vector<pollfd>* extra,
                   double deadline) {
  std::vector<pollfd> fds;
  if (extra != nullptr) fds = *extra;
  // A pidfd polls readable once its process has exited, so the wait ends at
  // the exit itself. Opened per wait: an unreaped child's pid stays valid.
  std::vector<Fd> exit_fds;
  for (const pid_t pid : pids) {
    if (pid <= 0) continue;
    Fd fd(static_cast<int>(::syscall(SYS_pidfd_open, pid, 0)));
    HQR_CHECK(fd.valid(),
              "pidfd_open(" << pid << "): " << std::strerror(errno));
    fds.push_back(pollfd{fd.get(), POLLIN, 0});
    exit_fds.push_back(std::move(fd));
  }
  if (fds.empty()) return;
  int timeout_ms = -1;
  if (deadline > 0) {
    const double ms = std::ceil((deadline - monotonic_seconds()) * 1e3);
    timeout_ms = ms <= 0 ? 0 : ms >= INT_MAX ? INT_MAX : static_cast<int>(ms);
  }
  const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
  HQR_CHECK(rc >= 0 || errno == EINTR, "poll: " << std::strerror(errno));
  if (extra != nullptr)
    for (std::size_t i = 0; i < extra->size(); ++i)
      (*extra)[i].revents = rc > 0 ? fds[i].revents : 0;
}

// Tears down every still-running rank. With a grace budget the group first
// gets SIGTERM (a chance to flush traces and metrics before dying); ranks
// still alive at the deadline get SIGKILL. Blocks until all are reaped.
void kill_group(std::vector<pid_t>& pids, std::vector<RankExit>& exits,
                double grace_seconds) {
  const int n = static_cast<int>(pids.size());
  bool any = false;
  for (pid_t pid : pids) any = any || pid > 0;
  if (!any) return;
  if (grace_seconds > 0) {
    for (pid_t pid : pids)
      if (pid > 0) ::kill(pid, SIGTERM);
    const double kill_at = monotonic_seconds() + grace_seconds;
    for (;;) {
      bool alive = false;
      for (int r = 0; r < n; ++r) {
        pid_t& pid = pids[static_cast<std::size_t>(r)];
        if (pid < 0) continue;
        int status = 0;
        const pid_t got = ::waitpid(pid, &status, WNOHANG);
        if (got == pid) {
          record_exit(exits[static_cast<std::size_t>(r)], status);
          exits[static_cast<std::size_t>(r)].killed_by_launcher = true;
          pid = -1;
        } else {
          alive = true;
        }
      }
      if (!alive || monotonic_seconds() >= kill_at) break;
      wait_for_exit(pids, nullptr, kill_at);
    }
  }
  for (pid_t pid : pids)
    if (pid > 0) ::kill(pid, SIGKILL);
  for (int r = 0; r < n; ++r) {
    pid_t& pid = pids[static_cast<std::size_t>(r)];
    if (pid < 0) continue;
    int status = 0;
    ::waitpid(pid, &status, 0);
    record_exit(exits[static_cast<std::size_t>(r)], status);
    exits[static_cast<std::size_t>(r)].killed_by_launcher = true;
    pid = -1;
  }
}

}  // namespace detail

using detail::kill_group;
using detail::record_exit;

LaunchReport run_ranks_report(int nranks,
                              const std::function<int(Comm&)>& rank_main,
                              const LaunchOptions& opts) {
  HQR_CHECK(nranks >= 1, "need at least one rank, got " << nranks);
  std::unique_ptr<Transport> transport = make_transport(opts.transport);
  transport->prepare(nranks);

  std::fflush(nullptr);  // don't duplicate buffered output into children
  std::vector<pid_t> pids(static_cast<std::size_t>(nranks), -1);
  for (int r = 0; r < nranks; ++r) {
    const pid_t pid = ::fork();
    HQR_CHECK(pid >= 0, "fork failed for rank " << r);
    if (pid == 0) child_main(r, *transport, rank_main);  // never returns
    pids[static_cast<std::size_t>(r)] = pid;
  }
  transport->parent_release();  // parent holds no mesh descriptors

  const double deadline = opts.timeout_seconds > 0
                              ? monotonic_seconds() + opts.timeout_seconds
                              : 0.0;

  LaunchReport report;
  report.ranks.resize(static_cast<std::size_t>(nranks));
  int alive = nranks;
  while (alive > 0) {
    for (int r = 0; r < nranks; ++r) {
      pid_t& pid = pids[static_cast<std::size_t>(r)];
      if (pid < 0) continue;
      int status = 0;
      const pid_t got = ::waitpid(pid, &status, WNOHANG);
      if (got == 0) continue;
      HQR_CHECK(got == pid, "waitpid failed for rank " << r);
      pid = -1;
      --alive;
      RankExit& e = report.ranks[static_cast<std::size_t>(r)];
      record_exit(e, status);
      int code = 0;
      if (e.exited) {
        code = e.exit_code;
      } else if (e.signaled) {
        std::fprintf(stderr, "[launcher] rank %d killed by signal %d\n", r,
                     e.term_signal);
        code = 1;
      }
      if (code != 0 && report.first_failure == 0) {
        report.first_failure = code;
        report.failed_rank = r;
      }
    }
    if (alive == 0) break;
    if (report.first_failure != 0) break;  // one rank failed: kill the rest
    if (deadline > 0 && monotonic_seconds() >= deadline) {
      std::fprintf(stderr,
                   "[launcher] timeout after %.1fs, killing %d rank(s)\n",
                   opts.timeout_seconds, alive);
      report.timed_out = true;
      break;
    }
    detail::wait_for_exit(pids, nullptr, deadline);
  }

  kill_group(pids, report.ranks, opts.term_grace_seconds);
  if (report.timed_out && report.first_failure == 0) report.first_failure = 1;
  return report;
}

int run_ranks(int nranks, const std::function<int(Comm&)>& rank_main,
              const LaunchOptions& opts) {
  return run_ranks_report(nranks, rank_main, opts).first_failure;
}

}  // namespace hqr::net
