// Pre-recovery failure paths: what the system does when fault tolerance
// is OFF (or cannot help). A signal death mid-run must fail loudly with
// the dead rank attributed in the LaunchReport; a wedged run must trip
// the progress watchdog and surface a typed WatchdogTimeout; a SIGTERM
// grace budget must let ranks exit cleanly during teardown; and killing
// the collector rank must tear the group down even with recovery on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <thread>
#include <unistd.h>

#include "common/rng.hpp"
#include "core/factorization.hpp"
#include "distrun/dist_exec.hpp"
#include "fault/ft_launcher.hpp"
#include "linalg/random_matrix.hpp"
#include "net/launcher.hpp"
#include "trees/hqr_tree.hpp"

namespace hqr {
namespace {

EliminationList small_list(int* mt, int* nt) {
  const TiledMatrix probe =
      TiledMatrix::from_matrix(Matrix(256, 128), 32);
  *mt = probe.mt();
  *nt = probe.nt();
  HqrConfig cfg{4, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
  return hqr_elimination_list(probe.mt(), probe.nt(), cfg);
}

TEST(FaultPaths, SignalDeathWithoutRecoveryFailsLoudly) {
  const auto rank_main = [](net::Comm& comm) -> int {
    if (comm.rank() == 2) ::raise(SIGKILL);
    Rng rng(7);
    Matrix a = random_gaussian(256, 128, rng);
    int mt = 0, nt = 0;
    EliminationList list = small_list(&mt, &nt);
    distrun::DistOptions opts;
    opts.progress_timeout_seconds = 10.0;
    // Recovery off: the survivors' peer-EOF detection is fatal by design.
    (void)distrun::dist_qr_factorize(comm, a, 32, list,
                                     Distribution::cyclic_1d(3), opts);
    return 0;
  };
  net::LaunchOptions lopts;
  lopts.timeout_seconds = 120.0;
  const net::LaunchReport report = net::run_ranks_report(3, rank_main, lopts);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.ranks.size(), 3u);
  EXPECT_TRUE(report.ranks[2].signaled);
  EXPECT_EQ(report.ranks[2].term_signal, SIGKILL);
}

TEST(FaultPaths, LaunchReportRecordsCleanExits) {
  const net::LaunchReport report =
      net::run_ranks_report(2, [](net::Comm&) { return 0; });
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.ranks.size(), 2u);
  for (const net::RankExit& e : report.ranks) {
    EXPECT_TRUE(e.exited);
    EXPECT_EQ(e.exit_code, 0);
    EXPECT_FALSE(e.killed_by_launcher);
  }
}

TEST(FaultPaths, TermGraceLetsRanksExitCleanlyDuringTeardown) {
  const auto rank_main = [](net::Comm& comm) -> int {
    if (comm.rank() == 0) {
      // Fail only once rank 1 reports its handler installed: a SIGTERM that
      // arrived before the handler would kill rank 1 by signal instead.
      bool ready = false;
      while (!ready) comm.pump(10, [&](net::Message&&) { ready = true; });
      return 9;  // first failure triggers teardown
    }
    std::signal(SIGTERM, [](int) { ::_exit(17); });
    const std::int32_t installed = 1;
    comm.set_eof_ok(true);  // rank 0 may exit as soon as the frame lands
    comm.post(0, net::Tag::Data, 0, &installed, sizeof(installed));
    while (!comm.flushed()) comm.pump(10, [](net::Message&&) {});
    for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  };
  net::LaunchOptions lopts;
  lopts.timeout_seconds = 60.0;
  lopts.term_grace_seconds = 5.0;
  const net::LaunchReport report = net::run_ranks_report(2, rank_main, lopts);
  EXPECT_EQ(report.first_failure, 9);
  EXPECT_EQ(report.failed_rank, 0);
  ASSERT_EQ(report.ranks.size(), 2u);
  // Rank 1 got SIGTERM, ran its handler, and exited on its own terms —
  // grace worked; without it the record would show a SIGKILL death.
  EXPECT_TRUE(report.ranks[1].killed_by_launcher);
  EXPECT_TRUE(report.ranks[1].exited);
  EXPECT_EQ(report.ranks[1].exit_code, 17);
}

TEST(FaultPaths, WedgedRunTripsWatchdogWithTypedFailure) {
  const auto rank_main = [](net::Comm& comm,
                            const fault::FtRankContext& ctx) -> int {
    Rng rng(7);
    Matrix a = random_gaussian(256, 128, rng);
    int mt = 0, nt = 0;
    EliminationList list = small_list(&mt, &nt);
    distrun::DistOptions opts;
    // Rank 1 wedges the run: every frame to rank 0 held for 60 s from its
    // first completion on. Rank 0's watchdog must fire long before that.
    opts.fault.faults = ctx.faults;
    opts.progress_timeout_seconds = comm.rank() == 0 ? 1.0 : 30.0;
    std::atomic<bool> saw_watchdog{false};
    opts.fault.on_failure = [&](const fault::RankFailure& f) {
      if (f.reason == fault::FailureReason::WatchdogTimeout &&
          f.rank == comm.rank() && f.detected_by == comm.rank())
        saw_watchdog.store(true);
    };
    try {
      (void)distrun::dist_qr_factorize(comm, a, 32, list,
                                       Distribution::cyclic_1d(2), opts);
    } catch (const Error&) {
      if (comm.rank() != 0) return 0;       // aborted by rank 0, expected
      return saw_watchdog.load() ? 0 : 5;   // typed event must precede it
    }
    return comm.rank() == 0 ? 6 : 0;  // rank 0 completing means no wedge
  };
  fault::FtLaunchOptions lopts;
  lopts.launch.timeout_seconds = 120.0;
  lopts.plan = fault::FaultPlan::parse("delay:1-0@1+60");
  lopts.recovery = false;
  const fault::FtLaunchReport report =
      fault::run_ranks_ft(2, rank_main, lopts);
  EXPECT_TRUE(report.ok()) << "failed rank " << report.launch.failed_rank
                           << " exit " << report.launch.first_failure;
}

TEST(FaultPaths, CollectorDeathIsFinalEvenWithRecoveryOn) {
  const auto rank_main = [](net::Comm& comm,
                            const fault::FtRankContext&) -> int {
    if (comm.rank() == 0) ::raise(SIGKILL);
    for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  };
  fault::FtLaunchOptions lopts;
  lopts.launch.timeout_seconds = 60.0;
  lopts.recovery = true;
  const fault::FtLaunchReport report =
      fault::run_ranks_ft(2, rank_main, lopts);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.replacements_forked, 0);
  bool saw = false;
  for (const fault::RankFailure& f : report.failures)
    saw = saw || (f.rank == 0 &&
                  f.reason == fault::FailureReason::KilledBySignal &&
                  f.detail == SIGKILL);
  EXPECT_TRUE(saw);
}

}  // namespace
}  // namespace hqr
