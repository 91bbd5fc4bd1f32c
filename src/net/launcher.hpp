// Rank launcher: forks R worker processes connected by a transport-built
// socket mesh and supervises them.
//
// The transport (net/transport.hpp) decides how the mesh exists: the
// default `unix` backend creates one AF_UNIX socketpair per unordered rank
// pair in the parent *before* any fork, so every child inherits all
// descriptors and keeps only its own row; the `tcp` backend hands children
// a rendezvous port and they wire the mesh themselves after fork. Either
// way the parent closes everything and watches the children: the first
// nonzero exit, killing signal, or deadline overrun makes it terminate the
// whole group and report failure — a crashed or wedged rank can never hang
// the caller (or CI).
#pragma once

#include <functional>
#include <vector>

#include <poll.h>
#include <sys/types.h>

#include "net/comm.hpp"
#include "net/transport.hpp"

namespace hqr::net {

struct LaunchOptions {
  // Wall-clock budget for the whole run; <= 0 means no deadline.
  double timeout_seconds = 0.0;
  // When tearing the group down after a failure or timeout: > 0 sends
  // SIGTERM first and escalates to SIGKILL only after this many seconds,
  // giving ranks a chance to flush traces/metrics; 0 keeps the historical
  // immediate-SIGKILL behavior.
  double term_grace_seconds = 0.0;
  // How ranks reach each other; defaults to the AF_UNIX socketpair mesh.
  TransportOptions transport;
};

// How one rank's process ended.
struct RankExit {
  bool exited = false;     // ran to _exit()
  int exit_code = 0;       // valid when exited
  bool signaled = false;   // killed by a signal
  int term_signal = 0;     // valid when signaled
  bool killed_by_launcher = false;  // torn down during group cleanup

  bool ok() const { return exited && exit_code == 0 && !signaled; }
};

// What the supervision loop observed, rank by rank — the structured answer
// to "which rank failed, and how" that the plain exit code of run_ranks
// collapses away. The fault-tolerant launcher (fault/ft_launcher.hpp)
// builds its failure events from the same observations.
struct LaunchReport {
  int first_failure = 0;   // first failing rank's exit code (1 for signals)
  int failed_rank = -1;    // rank of that first failure; -1 when none
  bool timed_out = false;  // the wall-clock budget expired
  std::vector<RankExit> ranks;

  bool ok() const { return first_failure == 0 && !timed_out; }
};

// Forks `nranks` children; each runs `rank_main` with its communicator and
// exits with its return value (uncaught hqr exceptions — including a
// transport that cannot wire the mesh in time — become exit code 1).
// Must be called before the calling process spawns threads — fork() only
// carries the calling thread into the child.
LaunchReport run_ranks_report(int nranks,
                              const std::function<int(Comm&)>& rank_main,
                              const LaunchOptions& opts = {});

// Compact form: 0 when every rank exited 0, otherwise the first failing
// rank's exit code (or 1 for signals/timeouts).
int run_ranks(int nranks, const std::function<int(Comm&)>& rank_main,
              const LaunchOptions& opts = {});

namespace detail {

// Tears down every pid still > 0 in `pids` and reaps it into `exits`
// (marking killed_by_launcher). With grace_seconds > 0 the group gets
// SIGTERM first, SIGKILL only for stragglers past the deadline. Shared by
// the plain and fault-tolerant launchers.
void kill_group(std::vector<pid_t>& pids, std::vector<RankExit>& exits,
                double grace_seconds);

// Classifies one waitpid status into a RankExit.
void record_exit(RankExit& e, int status);

// Blocks until a rank in `pids` exits (entries <= 0 are not watched), a
// descriptor in `*extra` (may be null) polls ready — its revents are filled
// in — or `deadline` passes (a monotonic_seconds() instant; <= 0: none). A
// signal ends the wait early too. Reaps nothing: waitpid stays the
// authority on how a rank ended. Shared by the plain and fault-tolerant
// launchers, so neither sleeps between reap sweeps.
void wait_for_exit(const std::vector<pid_t>& pids, std::vector<pollfd>* extra,
                   double deadline);

}  // namespace detail

}  // namespace hqr::net
