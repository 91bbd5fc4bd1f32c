#include "fault/ft_launcher.hpp"

#include <cstdio>
#include <exception>
#include <utility>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "net/control.hpp"

namespace hqr::fault {

namespace {

using net::Comm;
using net::ControlMsg;
using net::ControlOp;
using net::Fd;

// Shared body of the original and replacement children: run the rank
// function behind the same guard as net::run_ranks and _exit.
[[noreturn]] void run_child(
    Comm& comm, const FtRankContext& ctx,
    const std::function<int(Comm&, const FtRankContext&)>& rank_main) {
  int code = 1;
  try {
    code = rank_main(comm, ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[rank %d%s] fatal: %s\n", ctx.rank,
                 ctx.is_replacement ? "*" : "", e.what());
    std::fflush(stderr);
    code = 1;
  } catch (...) {
    std::fprintf(stderr, "[rank %d] fatal: unknown exception\n", ctx.rank);
    std::fflush(stderr);
    code = 1;
  }
  std::fflush(nullptr);
  ::_exit(code);
}

[[noreturn]] void original_child(
    int rank, net::Transport& transport, std::vector<Fd>& ctrl_parent,
    std::vector<Fd>& ctrl_child, const FtLaunchOptions& opts,
    const std::function<int(Comm&, const FtRankContext&)>& rank_main) {
#ifdef __linux__
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  for (Fd& f : ctrl_parent) f.reset();
  for (int q = 0; q < static_cast<int>(ctrl_child.size()); ++q)
    if (q != rank) ctrl_child[static_cast<std::size_t>(q)].reset();
  FtRankContext ctx;
  ctx.rank = rank;
  ctx.control_fd = ctrl_child[static_cast<std::size_t>(rank)].get();
  ctx.faults = opts.plan.actions_for(rank);
  try {
    Comm comm(rank, transport.connect_rank(rank));
    run_child(comm, ctx, rank_main);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[rank %d] fatal: %s\n", rank, e.what());
    std::fflush(nullptr);
    ::_exit(1);
  }
  ::_exit(1);  // unreachable
}

[[noreturn]] void replacement_child(
    int rank, int incarnation, std::vector<Fd>& mesh,
    std::vector<Fd>& ctrl_parent, Fd& control,
    const std::function<int(Comm&, const FtRankContext&)>& rank_main) {
#ifdef __linux__
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  for (Fd& f : ctrl_parent) f.reset();
  FtRankContext ctx;
  ctx.rank = rank;
  ctx.is_replacement = true;
  ctx.incarnation = incarnation;
  ctx.control_fd = control.get();
  // No ctx.faults: an injection fires once per plan, not per incarnation.
  try {
    Comm comm(rank, std::move(mesh));
    run_child(comm, ctx, rank_main);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[rank %d*] fatal: %s\n", rank, e.what());
    std::fflush(nullptr);
    ::_exit(1);
  }
  ::_exit(1);  // unreachable
}

struct Death {
  int rank;
  RankFailure failure;
  int code;  // what first_failure would be
};

}  // namespace

FtLaunchReport run_ranks_ft(
    int nranks,
    const std::function<int(Comm&, const FtRankContext&)>& rank_main,
    const FtLaunchOptions& opts) {
  HQR_CHECK(nranks >= 1, "need at least one rank, got " << nranks);
  for (const FaultAction& a : opts.plan.actions) {
    HQR_CHECK(a.rank >= 0 && a.rank < nranks,
              "fault plan targets rank " << a.rank << " of " << nranks);
    HQR_CHECK(a.kind == FaultKind::KillRank ||
                  (a.peer >= 0 && a.peer < nranks && a.peer != a.rank),
              "fault plan link peer " << a.peer << " invalid");
  }

  std::unique_ptr<net::Transport> transport =
      net::make_transport(opts.launch.transport);
  transport->prepare(nranks);

  // One control socketpair per rank, created before any fork so original
  // children inherit them (mirrors the unix transport's mesh dance).
  const auto n = static_cast<std::size_t>(nranks);
  std::vector<Fd> ctrl(n);        // launcher side
  std::vector<Fd> ctrl_child(n);  // rank side
  for (std::size_t r = 0; r < n; ++r) {
    auto pair = net::stream_pair();
    ctrl[r] = std::move(pair.first);
    ctrl_child[r] = std::move(pair.second);
  }

  std::fflush(nullptr);
  std::vector<pid_t> pids(n, -1);
  std::vector<char> done(n, 0);
  std::vector<int> incarnation(n, 0);
  // sent_replace[s][q]: ReplacePeer messages sent to rank s about its link
  // to q — the launcher's mirror of s's Comm epoch for that link, used to
  // drop stale/duplicate LinkDown reports.
  std::vector<std::vector<int>> sent_replace(n, std::vector<int>(n, 0));

  for (int r = 0; r < nranks; ++r) {
    const pid_t pid = ::fork();
    HQR_CHECK(pid >= 0, "fork failed for rank " << r);
    if (pid == 0)
      original_child(r, *transport, ctrl, ctrl_child, opts, rank_main);
    pids[static_cast<std::size_t>(r)] = pid;
  }
  transport->parent_release();
  for (Fd& f : ctrl_child) f.reset();

  const double t0 = monotonic_seconds();
  const bool has_deadline = opts.launch.timeout_seconds > 0;
  const double deadline = t0 + opts.launch.timeout_seconds;

  FtLaunchReport report;
  report.launch.ranks.resize(n);
  int alive = nranks;
  int recoveries = 0;
  bool fatal = false;

  const auto recover = [&](int r) {
    ++recoveries;
    ++report.replacements_forked;
    auto new_ctrl = net::stream_pair();
    std::vector<Fd> mesh(n);
    for (int s = 0; s < nranks; ++s) {
      if (s == r) continue;
      auto pair = net::stream_pair();
      mesh[static_cast<std::size_t>(s)] = std::move(pair.first);
      if (pids[static_cast<std::size_t>(s)] > 0 &&
          !done[static_cast<std::size_t>(s)]) {
        // The liveness check above is inherently racy (the supervision
        // loop reaps only between waits): rank s can die or finish between
        // it and this sendmsg, which then reports EPIPE — or ECONNRESET if
        // s went down with an unread control message in its queue. Either
        // way the process is gone, the next reap pass classifies the death,
        // and the replacement sees EOF on this link exactly as if s had
        // been reaped before recover() ran.
        try {
          net::send_control(ctrl[static_cast<std::size_t>(s)].get(),
                            ControlOp::ReplacePeer, r, 0, pair.second.get());
          ++sent_replace[static_cast<std::size_t>(s)]
                        [static_cast<std::size_t>(r)];
        } catch (const std::exception&) {
        }
      }
      // A dead/done survivor's end just closes: the replacement sees EOF on
      // that link, marks it down, and that rank's own recovery (if any)
      // re-wires it.
    }
    // The replacement's Comm starts with fresh epochs.
    for (std::size_t q = 0; q < n; ++q)
      sent_replace[static_cast<std::size_t>(r)][q] = 0;
    ctrl[static_cast<std::size_t>(r)] = std::move(new_ctrl.first);
    ++incarnation[static_cast<std::size_t>(r)];
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    HQR_CHECK(pid >= 0, "fork failed for replacement rank " << r);
    if (pid == 0)
      replacement_child(r, incarnation[static_cast<std::size_t>(r)], mesh,
                        ctrl, new_ctrl.second, rank_main);
    pids[static_cast<std::size_t>(r)] = pid;
    ++alive;
    // Parent copies of `mesh` and new_ctrl.second close on scope exit.
  };

  std::vector<Death> deaths;
  const auto reap_one = [&](int r, int status) {
    pids[static_cast<std::size_t>(r)] = -1;
    --alive;
    net::RankExit& e = report.launch.ranks[static_cast<std::size_t>(r)];
    e = net::RankExit{};
    net::detail::record_exit(e, status);
    if (e.ok()) {
      done[static_cast<std::size_t>(r)] = 1;
      return;
    }
    Death d;
    d.rank = r;
    d.failure.rank = r;
    d.failure.seconds = monotonic_seconds() - t0;
    if (e.signaled) {
      d.failure.reason = FailureReason::KilledBySignal;
      d.failure.detail = e.term_signal;
      d.code = 1;
    } else {
      d.failure.reason = FailureReason::NonzeroExit;
      d.failure.detail = e.exit_code;
      d.code = e.exit_code;
    }
    deaths.push_back(d);
  };

  while (alive > 0) {
    // Reap pass.
    for (int r = 0; r < nranks; ++r) {
      pid_t& pid = pids[static_cast<std::size_t>(r)];
      if (pid <= 0) continue;
      int status = 0;
      const pid_t got = ::waitpid(pid, &status, WNOHANG);
      if (got == 0) continue;
      HQR_CHECK(got == pid, "waitpid failed for rank " << r);
      reap_one(r, status);
    }
    for (const Death& d : deaths) {
      report.failures.push_back(d.failure);
      std::fprintf(stderr, "[ft-launcher] %s\n", d.failure.describe().c_str());
      // Only crash deaths (signals) are recoverable. A nonzero _exit means
      // the rank itself concluded the run failed — a check tripped, its
      // watchdog fired, or a peer's Abort reached it — and a replacement
      // would re-execute straight into the same deterministic failure (or
      // into a mesh that is already tearing down).
      if (opts.recovery && d.rank != 0 &&
          d.failure.reason == FailureReason::KilledBySignal &&
          recoveries < opts.max_recoveries) {
        recover(d.rank);
      } else {
        if (report.launch.first_failure == 0) {
          report.launch.first_failure = d.code;
          report.launch.failed_rank = d.rank;
        }
        fatal = true;
      }
    }
    deaths.clear();
    if (fatal || alive == 0) break;
    if (has_deadline && monotonic_seconds() >= deadline) {
      std::fprintf(stderr,
                   "[ft-launcher] timeout after %.1fs, killing %d rank(s)\n",
                   opts.launch.timeout_seconds, alive);
      report.launch.timed_out = true;
      for (int r = 0; r < nranks; ++r) {
        if (pids[static_cast<std::size_t>(r)] <= 0) continue;
        RankFailure f;
        f.rank = r;
        f.reason = FailureReason::LaunchTimeout;
        f.seconds = monotonic_seconds() - t0;
        report.failures.push_back(f);
      }
      break;
    }

    // Control pass: wait for a LinkDown report on a live rank's channel, a
    // rank exit or the deadline, whichever comes first.
    std::vector<pollfd> fds;
    std::vector<int> who;
    for (int r = 0; r < nranks; ++r) {
      if (pids[static_cast<std::size_t>(r)] <= 0) continue;
      pollfd p{};
      p.fd = ctrl[static_cast<std::size_t>(r)].get();
      p.events = POLLIN;
      fds.push_back(p);
      who.push_back(r);
    }
    net::detail::wait_for_exit(pids, &fds, has_deadline ? deadline : 0.0);
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (!(fds[i].revents & (POLLIN | POLLHUP))) continue;
      const int s = who[i];
      if (pids[static_cast<std::size_t>(s)] <= 0) continue;  // reaped above
      if (!(fds[i].revents & POLLIN)) continue;  // bare HUP: death pass's job
      ControlMsg m;
      Fd passed;
      bool got_msg = false;
      try {
        got_msg = net::recv_control(ctrl[static_cast<std::size_t>(s)].get(),
                                    &m, &passed, monotonic_seconds() + 5.0);
      } catch (const std::exception&) {
        // ECONNRESET: rank s died with an unread control message in its
        // queue (e.g. a ReplacePeer it never consumed before exiting).
        // Same meaning as the clean EOF below — the process is gone and
        // waitpid is the authority on what happened to it.
      }
      if (!got_msg)
        continue;  // EOF: the next reap pass classifies the death
      if (static_cast<ControlOp>(m.op) != ControlOp::LinkDown) continue;
      const int q = m.peer;
      HQR_CHECK(q >= 0 && q < nranks && q != s,
                "malformed LinkDown from rank " << s);
      {
        RankFailure f;
        f.rank = q;
        f.detected_by = s;
        f.reason = FailureReason::PeerClosed;
        f.seconds = monotonic_seconds() - t0;
        report.failures.push_back(f);
      }
      // Stale: a ReplacePeer for this link is already in flight (the other
      // endpoint reported first, or a rank recovery re-wired it).
      if (m.epoch !=
          sent_replace[static_cast<std::size_t>(s)][static_cast<std::size_t>(
              q)])
        continue;
      // The peer process may be dead but not yet reaped — then this is a
      // rank failure, not a link failure; leave it to the reap pass.
      pid_t& qpid = pids[static_cast<std::size_t>(q)];
      if (qpid <= 0) continue;
      int status = 0;
      const pid_t got = ::waitpid(qpid, &status, WNOHANG);
      if (got == qpid) {
        reap_one(q, status);
        continue;  // deaths handled at the top of the next iteration
      }
      // Both endpoints live: chaos DropLink. Re-wire just this link.
      // "Live" is only as fresh as the waitpid above — either endpoint
      // can be mid-exit (mesh sockets already closed, process not yet
      // reaped), in which case the sendmsg reports EPIPE, or ECONNRESET
      // if it died with unread control data queued. A failed send means
      // that endpoint is going away: count only the sends that landed so
      // the epoch book matches what each rank actually received, and let
      // the reap pass classify the death. A half-rewired link self-heals
      // — the installed end sees EOF (its peer fd closes with `pair`)
      // and reports LinkDown at the bumped epoch.
      auto pair = net::stream_pair();
      bool sent_s = false;
      bool sent_q = false;
      try {
        net::send_control(ctrl[static_cast<std::size_t>(s)].get(),
                          ControlOp::ReplacePeer, q, 0, pair.first.get());
        sent_s = true;
      } catch (const std::exception&) {
      }
      try {
        net::send_control(ctrl[static_cast<std::size_t>(q)].get(),
                          ControlOp::ReplacePeer, s, 0, pair.second.get());
        sent_q = true;
      } catch (const std::exception&) {
      }
      if (sent_s)
        ++sent_replace[static_cast<std::size_t>(s)][static_cast<std::size_t>(
            q)];
      if (sent_q)
        ++sent_replace[static_cast<std::size_t>(q)][static_cast<std::size_t>(
            s)];
      if (sent_s && sent_q) ++report.links_rewired;
    }
  }

  net::detail::kill_group(pids, report.launch.ranks,
                          opts.launch.term_grace_seconds);
  if (report.launch.timed_out && report.launch.first_failure == 0)
    report.launch.first_failure = 1;
  return report;
}

}  // namespace hqr::fault
