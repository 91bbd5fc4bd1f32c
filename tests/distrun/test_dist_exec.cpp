// End-to-end tests of the distributed runtime: fork real rank processes,
// factor a matrix over the socket mesh, and require the gathered result on
// rank 0 to be bit-identical to a single-process factorization. All
// verification runs inside the children; failures propagate to the parent
// as nonzero exit codes through the launcher.
#include "distrun/dist_exec.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/factorization.hpp"
#include "dag/partition.hpp"
#include "linalg/random_matrix.hpp"
#include "net/launcher.hpp"
#include "trees/hqr_tree.hpp"

namespace hqr {
namespace {

bool bit_identical(const QRFactors& x, const QRFactors& y) {
  const Matrix ax = x.a().to_padded_matrix();
  const Matrix ay = y.a().to_padded_matrix();
  for (int j = 0; j < ax.cols(); ++j)
    for (int i = 0; i < ax.rows(); ++i)
      if (ax(i, j) != ay(i, j)) return false;
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
    for (int j = 0; j < tx.cols; ++j)
      for (int i = 0; i < tx.rows; ++i)
        if (tx(i, j) != ty(i, j)) return false;
  }
  return true;
}

// Sum of a phase split, or -1 when a part is negative.
double phase_sum(const distrun::DistPhases& p) {
  double sum = 0.0;
  for (const double part :
       {p.tiling, p.plan_sync, p.engine, p.flush, p.gather, p.bye}) {
    if (part < 0.0) return -1.0;
    sum += part;
  }
  return sum;
}

struct Setup {
  int m, n, b;
  Distribution dist;
  int threads = 1;
  int ib = 0;
};

// Forks dist.nodes() ranks, factors, and verifies on rank 0 that the
// gathered factors match the sequential run bitwise and that the measured
// Data traffic equals the communication plan. Every rank checks that its
// phase split has no negative part and sums to no more than its wall time.
int run_case(const Setup& s) {
  const int ranks = s.dist.nodes();
  const auto rank_main = [&](net::Comm& comm) -> int {
    Rng rng(5);
    Matrix a = random_gaussian(s.m, s.n, rng);
    const TiledMatrix probe = TiledMatrix::from_matrix(a, s.b);
    HqrConfig cfg{4, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
    EliminationList list = hqr_elimination_list(probe.mt(), probe.nt(), cfg);

    distrun::DistOptions opts;
    opts.threads = s.threads;
    opts.ib = s.ib;
    opts.progress_timeout_seconds = 60.0;
    distrun::DistStats stats;
    QRFactors f =
        distrun::dist_qr_factorize(comm, a, s.b, list, s.dist, opts, &stats);
    const double phases = phase_sum(stats.phases);
    if (phases < 0.0 || phases > stats.seconds) return 5;
    if (comm.rank() != 0) return 0;
    // The split every rank shipped, and rank 0's own entry in full.
    for (const distrun::DistRankStats& r : stats.ranks)
      if (phase_sum(r.phases) < 0.0) return 6;
    if (phase_sum(stats.ranks[0].phases) != phases) return 6;

    QRFactors ref = qr_factorize_sequential(a, s.b, list, opts.ib);
    if (!bit_identical(f, ref)) return 2;

    long long measured = 0, tasks = 0;
    for (const distrun::DistRankStats& r : stats.ranks) {
      measured += r.data_messages_sent;
      tasks += r.tasks;
    }
    if (measured != stats.plan_messages) return 3;
    if (tasks != static_cast<long long>(f.kernels().size())) return 4;
    return 0;
  };
  net::LaunchOptions lopts;
  lopts.timeout_seconds = 240.0;
  return net::run_ranks(ranks, rank_main, lopts);
}

TEST(DistExec, SingleRankMatchesSequential) {
  EXPECT_EQ(run_case({96, 96, 32, Distribution::cyclic_1d(1)}), 0);
}

TEST(DistExec, BlockCyclic2DFourRanks) {
  EXPECT_EQ(run_case({192, 160, 32, Distribution::block_cyclic_2d(2, 2)}), 0);
}

// ib < b: every T travels as ib x b, a quarter of a tile here.
TEST(DistExec, BlockCyclic2DFourRanksInnerBlocked) {
  EXPECT_EQ(
      run_case({192, 160, 32, Distribution::block_cyclic_2d(2, 2), 1, 8}), 0);
}

TEST(DistExec, Cyclic1DThreeRanksTallSkinny) {
  EXPECT_EQ(run_case({320, 96, 32, Distribution::cyclic_1d(3)}), 0);
}

TEST(DistExec, Block1DTwoRanksMultithreaded) {
  EXPECT_EQ(run_case({256, 128, 32, Distribution::block_1d(2, 8), 2}), 0);
}

// The issue's acceptance configuration: 8x8 tiles of 128 on a 2x2
// block-cyclic grid, 4 ranks x 2 worker threads.
TEST(DistExec, AcceptanceConfig8x8TilesFourRanks) {
  EXPECT_EQ(run_case({1024, 1024, 128, Distribution::block_cyclic_2d(2, 2), 2}),
            0);
}

TEST(DistExec, MismatchedRankCountThrows) {
  // dist.nodes() != comm.size() must fail loudly on every rank, which the
  // launcher reports as exit 1.
  const auto rank_main = [](net::Comm& comm) -> int {
    Rng rng(5);
    Matrix a = random_gaussian(64, 64, rng);
    const TiledMatrix probe = TiledMatrix::from_matrix(a, 32);
    HqrConfig cfg{4, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
    EliminationList list = hqr_elimination_list(probe.mt(), probe.nt(), cfg);
    distrun::DistOptions opts;
    QRFactors f = distrun::dist_qr_factorize(
        comm, a, 32, list, Distribution::cyclic_1d(3), opts);
    (void)f;
    return 0;
  };
  net::LaunchOptions lopts;
  lopts.timeout_seconds = 60.0;
  EXPECT_EQ(net::run_ranks(2, rank_main, lopts), 1);
}

}  // namespace
}  // namespace hqr
