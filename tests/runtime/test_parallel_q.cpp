// Parallel Q formation / application (the dorgqr/dormqr analogues) must
// match the sequential drivers bitwise: the apply task graph chains all
// non-commuting transformations, so any interleaving computes the same
// floating-point result.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "linalg/gemm.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "runtime/executor.hpp"
#include "trees/hqr_tree.hpp"
#include "trees/single_level.hpp"

namespace hqr {
namespace {

QRFactors make_factors(const Matrix& a0, int b) {
  HqrConfig cfg{3, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
  return qr_factorize_sequential(
      a0, b,
      hqr_elimination_list(TiledMatrix::tile_count(a0.rows(), b),
                           TiledMatrix::tile_count(a0.cols(), b), cfg));
}

class ParallelQ : public ::testing::TestWithParam<int> {};

TEST_P(ParallelQ, BuildQMatchesSequentialBitwise) {
  const int threads = GetParam();
  Rng rng(31);
  Matrix a0 = random_gaussian(36, 20, rng);
  QRFactors f = make_factors(a0, 4);
  Matrix q_seq = build_q(f);
  ExecutorOptions opts{.threads = threads};
  RunStats stats;
  Matrix q_par = build_q_parallel(f, opts, &stats);
  EXPECT_EQ(max_abs_diff(q_seq.view(), q_par.view()), 0.0);
  EXPECT_GT(stats.total_tasks, 0);
}

TEST_P(ParallelQ, ApplyQMatchesSequentialBitwise) {
  const int threads = GetParam();
  Rng rng(32 + threads);
  Matrix a0 = random_gaussian(28, 16, rng);
  QRFactors f = make_factors(a0, 4);
  Matrix c0 = random_gaussian(28, 9, rng);
  for (Trans trans : {Trans::Yes, Trans::No}) {
    TiledMatrix c_seq = TiledMatrix::from_matrix(c0, 4);
    apply_q(f, trans, c_seq);
    TiledMatrix c_par = TiledMatrix::from_matrix(c0, 4);
    ExecutorOptions opts{.threads = threads};
    apply_q_parallel(f, trans, c_par, opts);
    Matrix ms = c_seq.to_matrix();
    Matrix mp = c_par.to_matrix();
    EXPECT_EQ(max_abs_diff(ms.view(), mp.view()), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelQ, ::testing::Values(1, 2, 4, 8));

// C widths that are not tile multiples: the kernels run on C's real
// columns only, so a value planted in a padding column survives both
// drivers unchanged while the real columns still get op(Q) C.
class ParallelQNarrow : public ::testing::TestWithParam<int> {};

TEST_P(ParallelQNarrow, AppliesToRealColumnsOnly) {
  const int nc = GetParam();
  const int b = 8;
  Rng rng(50 + nc);
  // Wide, so build_q yields the whole padded_m x padded_m orthogonal Q.
  QRFactors f = make_factors(random_gaussian(30, 37, rng), b);
  const Matrix q = build_q(f);
  ASSERT_EQ(q.rows(), q.cols());
  const Matrix c0 = random_gaussian(30, nc, rng);
  const Matrix c0_padded = TiledMatrix::from_matrix(c0, b).to_padded_matrix();
  constexpr double kSentinel = 7.25;
  for (Trans trans : {Trans::Yes, Trans::No}) {
    TiledMatrix c_seq = TiledMatrix::from_matrix(c0, b);
    TiledMatrix c_par = TiledMatrix::from_matrix(c0, b);
    for (TiledMatrix* c : {&c_seq, &c_par}) {
      c->set(1, nc, kSentinel);
      c->set(c->padded_m() - 1, c->padded_n() - 1, kSentinel);
    }
    apply_q(f, trans, c_seq);
    apply_q_parallel(f, trans, c_par, ExecutorOptions{.threads = 4});
    const Matrix ms = c_seq.to_padded_matrix();
    const Matrix mp = c_par.to_padded_matrix();
    EXPECT_EQ(max_abs_diff(ms.view(), mp.view()), 0.0);

    Matrix want(q.rows(), nc);
    gemm(trans, Trans::No, 1.0, q.view(), c0_padded.block(0, 0, q.rows(), nc),
         0.0, want.view());
    EXPECT_LT(max_abs_diff(ms.block(0, 0, q.rows(), nc), want.view()), 1e-12);

    for (const Matrix* out : {&ms, &mp}) {
      EXPECT_EQ((*out)(1, nc), kSentinel);
      EXPECT_EQ((*out)(out->rows() - 1, out->cols() - 1), kSentinel);
    }
  }
}

// The dense form (C padded to whole tile rows only, as qr_solve uses it)
// runs the same kernels on the same values as the tiled form.
TEST_P(ParallelQNarrow, DenseMatchesTiledBitwise) {
  const int nc = GetParam();
  const int b = 8;
  Rng rng(60 + nc);
  QRFactors f = make_factors(random_gaussian(30, 17, rng), b);
  const int pm = f.a().padded_m();
  const Matrix c0 = random_gaussian(30, nc, rng);
  for (Trans trans : {Trans::Yes, Trans::No}) {
    for (int threads : {1, 4}) {
      TiledMatrix tiled = TiledMatrix::from_matrix(c0, b);
      apply_q_parallel(f, trans, tiled, ExecutorOptions{.threads = threads});
      const Matrix want = tiled.to_padded_matrix();
      Matrix dense(pm, nc);
      copy(c0.view(), dense.block(0, 0, c0.rows(), nc));
      apply_q_parallel(f, trans, dense.view(),
                       ExecutorOptions{.threads = threads});
      EXPECT_EQ(max_abs_diff(want.block(0, 0, pm, nc), dense.view()), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ParallelQNarrow, ::testing::Values(3, 11));

TEST(ParallelQ, DenseWithoutWholeTileRowsThrows) {
  Rng rng(46);
  QRFactors f = make_factors(random_gaussian(10, 8, rng), 4);
  Matrix c(10, 3);  // the factors' padded_m is 12
  EXPECT_THROW(apply_q_parallel(f, Trans::Yes, c.view(), ExecutorOptions{.threads = 2}),
               Error);
}

TEST(ParallelQ, RoundTripThroughRuntime) {
  Rng rng(41);
  Matrix a0 = random_gaussian(24, 24, rng);
  QRFactors f = make_factors(a0, 3);
  Matrix c0 = random_gaussian(24, 6, rng);
  TiledMatrix c = TiledMatrix::from_matrix(c0, 3);
  ExecutorOptions opts{.threads = 4};
  apply_q_parallel(f, Trans::Yes, c, opts);
  apply_q_parallel(f, Trans::No, c, opts);
  Matrix back = c.to_matrix();
  EXPECT_LT(max_abs_diff(back.view(), c0.view()), 1e-12);
}

TEST(ParallelQ, FullPipelineFactorizeBuildSolve) {
  // Factorize, build Q and check A = QR entirely through the runtime.
  Rng rng(43);
  Matrix a0 = random_gaussian(40, 24, rng);
  TiledMatrix probe = TiledMatrix::from_matrix(a0, 4);
  HqrConfig cfg{2, 2, TreeKind::Binary, TreeKind::Flat, false};
  auto list = hqr_elimination_list(probe.mt(), probe.nt(), cfg);
  ExecutorOptions opts{.threads = 4};
  QRFactors f = qr_factorize_parallel(a0, 4, list, opts);
  Matrix q = build_q_parallel(f, opts);
  EXPECT_LT(orthogonality_error(q.view()), 1e-12);
  Matrix qs = materialize(q.block(0, 0, 40, 24));
  Matrix r = extract_r(f);
  EXPECT_LT(factorization_residual(a0.view(), qs.view(), r.view()), 1e-12);
}

TEST(ParallelQ, MismatchedTilesThrow) {
  Rng rng(44);
  Matrix a0 = random_gaussian(8, 8, rng);
  QRFactors f = make_factors(a0, 4);
  TiledMatrix c(8, 4, 2);
  ExecutorOptions opts{.threads = 2};
  EXPECT_THROW(apply_q_parallel(f, Trans::Yes, c, opts), Error);
}

TEST(ParallelQ, ApplyGraphHasChainPerSharedRow) {
  // Structural check: two ops touching the same C tile are ordered.
  Rng rng(45);
  Matrix a0 = random_gaussian(16, 8, rng);
  QRFactors f = make_factors(a0, 4);
  auto ops = q_apply_ops(f, Trans::Yes, 2);
  TaskGraph g = TaskGraph::apply_graph(ops, f.mt(), 2);
  // Simulate in list order and verify edges point forward and cover all
  // same-tile pairs that are adjacent in program order.
  for (int i = 0; i < g.size(); ++i)
    for (auto s : g.successors(i)) EXPECT_GT(s, i);
  EXPECT_GT(g.num_edges(), 0);
}

}  // namespace
}  // namespace hqr
