// The acceptance pin of the fault-tolerance subsystem: a 4-rank
// distributed factorization with a deterministic mid-run SIGKILL recovers
// — the launcher forks a replacement, survivors replay their SentTileLog
// — and the result is bit-identical to the fault-free sequential run,
// under BOTH transports. Rank 0 also cross-validates the measured
// recovery cost against the deterministic CommPlan quantities; failures
// surface as distinct child exit codes through the launch report.
#include "fault/ft_launcher.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/rng.hpp"
#include "core/factorization.hpp"
#include "dag/partition.hpp"
#include "distrun/dist_exec.hpp"
#include "linalg/random_matrix.hpp"
#include "trees/hqr_tree.hpp"

namespace hqr {
namespace {

constexpr int kM = 384, kN = 384, kB = 64;

struct Tiling {
  int b = kB;
  int ib = 0;
};

// On mismatch, says what diverged — a rare under-load failure here is
// useless without knowing whether it was an A tile or a T factor and where.
bool bit_identical(const QRFactors& x, const QRFactors& y) {
  const int b = x.b();
  const Matrix ax = x.a().to_padded_matrix();
  const Matrix ay = y.a().to_padded_matrix();
  long long bad_a = 0;
  int first_i = -1, first_j = -1;
  for (int j = 0; j < ax.cols(); ++j)
    for (int i = 0; i < ax.rows(); ++i)
      if (ax(i, j) != ay(i, j)) {
        if (bad_a == 0) {
          first_i = i;
          first_j = j;
        }
        ++bad_a;
      }
  long long bad_t = 0;
  for (const KernelOp& op : x.kernels()) {
    ConstMatrixView tx, ty;
    if (op.type == KernelType::GEQRT) {
      tx = x.t_geqrt(op.row, op.k);
      ty = y.t_geqrt(op.row, op.k);
    } else if (op.type == KernelType::TSQRT || op.type == KernelType::TTQRT) {
      tx = x.t_pencil(op.row, op.k);
      ty = y.t_pencil(op.row, op.k);
    } else {
      continue;
    }
    long long bad = 0;
    for (int j = 0; j < tx.cols; ++j)
      for (int i = 0; i < tx.rows; ++i)
        if (tx(i, j) != ty(i, j)) ++bad;
    if (bad > 0 && bad_t == 0)
      std::fprintf(stderr,
                   "[bit_identical] first T mismatch: op type=%d row=%d k=%d "
                   "(%lld entries)\n",
                   static_cast<int>(op.type), op.row, op.k, bad);
    bad_t += bad;
  }
  if (bad_a > 0)
    std::fprintf(stderr,
                 "[bit_identical] A mismatch: %lld entries, first at "
                 "(%d,%d) tile (%d,%d)\n",
                 bad_a, first_i, first_j, first_i / b, first_j / b);
  return bad_a == 0 && bad_t == 0;
}

// Child exit codes: 2 = not bit-identical, 3 = no replacement incarnation,
// 4 = re-executed task count off, 5 = replacement traffic off, 6 = replay
// exceeded the plan bound.
int run_kill_recovery(const std::string& transport, BroadcastKind bcast,
                      Tiling tiling = {}) {
  const fault::FaultPlan fplan = fault::FaultPlan::parse("kill:2@3");
  const int victim = 2;

  const auto rank_main = [&](net::Comm& comm,
                             const fault::FtRankContext& ctx) -> int {
    Rng rng(42);
    Matrix a = random_gaussian(kM, kN, rng);
    const TiledMatrix probe = TiledMatrix::from_matrix(a, tiling.b);
    HqrConfig cfg{4, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
    EliminationList list = hqr_elimination_list(probe.mt(), probe.nt(), cfg);
    const Distribution dist = Distribution::block_cyclic_2d(2, 2);

    distrun::DistOptions opts;
    opts.threads = 2;
    opts.ib = tiling.ib;
    opts.broadcast = bcast;
    opts.progress_timeout_seconds = 60.0;
    opts.fault.faults = ctx.faults;
    opts.fault.recovery = true;
    opts.fault.is_replacement = ctx.is_replacement;
    opts.fault.incarnation = ctx.incarnation;
    opts.fault.control_fd = ctx.control_fd;

    distrun::DistStats stats;
    QRFactors f = distrun::dist_qr_factorize(comm, a, tiling.b, list, dist,
                                             opts, &stats);
    if (comm.rank() != 0) return 0;

    QRFactors ref = qr_factorize_sequential(a, tiling.b, list, opts.ib);
    if (!bit_identical(f, ref)) {
      for (std::size_t r = 0; r < stats.ranks.size(); ++r)
        std::fprintf(stderr,
                     "[bit_identical] rank %zu: inc=%d tasks=%lld sent=%lld "
                     "replayed=%lld dropped=%lld\n",
                     r, stats.ranks[r].incarnation, stats.ranks[r].tasks,
                     stats.ranks[r].data_messages_sent,
                     stats.ranks[r].frames_replayed,
                     stats.ranks[r].frames_dropped);
      return 2;
    }

    // Cross-validation against the deterministic plan (DESIGN.md §14):
    // the replacement re-executed exactly the victim's partition and
    // re-sent exactly what the plan charges the victim; survivors
    // replayed at most what the victim was ever planned to receive.
    const TaskGraph graph(f.kernels(), probe.mt(), probe.nt());
    const CommPlan plan(graph, dist, bcast);
    const distrun::DistRankStats& vic =
        stats.ranks[static_cast<std::size_t>(victim)];
    if (vic.incarnation < 1) return 3;
    if (vic.tasks != plan.tasks_on(victim)) return 4;
    if (vic.data_messages_sent != plan.sent_by(victim)) return 5;
    long long replayed = 0;
    for (const distrun::DistRankStats& r : stats.ranks)
      replayed += r.frames_replayed;
    if (replayed > plan.received_by(victim)) return 6;
    return 0;
  };

  fault::FtLaunchOptions lopts;
  lopts.launch.timeout_seconds = 240.0;
  lopts.launch.transport.kind = transport;
  lopts.plan = fplan;
  const fault::FtLaunchReport report = run_ranks_ft(4, rank_main, lopts);

  EXPECT_TRUE(report.ok()) << "failed rank " << report.launch.failed_rank
                           << " exit " << report.launch.first_failure;
  EXPECT_EQ(report.replacements_forked, 1);
  // The launcher saw the victim die by signal; peers reported the link.
  bool saw_kill = false;
  for (const fault::RankFailure& f : report.failures)
    saw_kill = saw_kill || (f.rank == victim &&
                            f.reason == fault::FailureReason::KilledBySignal);
  EXPECT_TRUE(saw_kill);
  return report.launch.first_failure;
}

TEST(Recovery, KillMidRunRecoversBitIdenticalUnixTransport) {
  EXPECT_EQ(run_kill_recovery("unix", BroadcastKind::Binomial), 0);
}

TEST(Recovery, KillMidRunRecoversBitIdenticalTcpTransport) {
  EXPECT_EQ(run_kill_recovery("tcp", BroadcastKind::Binomial), 0);
}

TEST(Recovery, KillMidRunRecoversUnderEagerBroadcast) {
  EXPECT_EQ(run_kill_recovery("unix", BroadcastKind::Eager), 0);
}

// ib < b: replayed and re-executed frames carry ib x b T factors.
TEST(Recovery, KillMidRunRecoversInnerBlocked) {
  EXPECT_EQ(run_kill_recovery("unix", BroadcastKind::Binomial, {32, 8}), 0);
}

TEST(Recovery, DropLinkRewiresWithoutReplacement) {
  const auto rank_main = [&](net::Comm& comm,
                             const fault::FtRankContext& ctx) -> int {
    Rng rng(42);
    Matrix a = random_gaussian(kM, kN, rng);
    const TiledMatrix probe = TiledMatrix::from_matrix(a, kB);
    HqrConfig cfg{4, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
    EliminationList list = hqr_elimination_list(probe.mt(), probe.nt(), cfg);

    distrun::DistOptions opts;
    opts.threads = 2;
    opts.progress_timeout_seconds = 60.0;
    opts.fault.faults = ctx.faults;
    opts.fault.recovery = true;
    opts.fault.is_replacement = ctx.is_replacement;
    opts.fault.incarnation = ctx.incarnation;
    opts.fault.control_fd = ctx.control_fd;

    QRFactors f = distrun::dist_qr_factorize(
        comm, a, kB, list, Distribution::block_cyclic_2d(2, 2), opts);
    if (comm.rank() != 0) return 0;
    QRFactors ref = qr_factorize_sequential(a, kB, list, opts.ib);
    return bit_identical(f, ref) ? 0 : 2;
  };

  fault::FtLaunchOptions lopts;
  lopts.launch.timeout_seconds = 240.0;
  lopts.plan = fault::FaultPlan::parse("drop:1-3@2");
  const fault::FtLaunchReport report = run_ranks_ft(4, rank_main, lopts);
  EXPECT_TRUE(report.ok()) << "failed rank " << report.launch.failed_rank;
  EXPECT_EQ(report.replacements_forked, 0);
  EXPECT_EQ(report.links_rewired, 1);
}

}  // namespace
}  // namespace hqr
