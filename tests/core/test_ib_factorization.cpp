// End-to-end factorization with the inner-blocked kernels: every path
// (sequential, parallel, Q build/apply, least squares) must stay at machine
// precision for any ib, and R must agree with the reference Householder QR.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.hpp"
#include "core/factorization.hpp"
#include "kernels/ib_kernels.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/ref_qr.hpp"
#include "runtime/executor.hpp"
#include "trees/hqr_tree.hpp"
#include "trees/single_level.hpp"

namespace hqr {
namespace {

constexpr double kTol = 1e-12;

// (m, n, b, ib)
class IbFactorization
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(IbFactorization, SequentialExactness) {
  auto [m, n, b, ib] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m) * 37 + n * 5 + b + ib);
  Matrix a0 = random_gaussian(m, n, rng);
  TiledMatrix probe = TiledMatrix::from_matrix(a0, b);
  HqrConfig cfg{3, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
  auto list = hqr_elimination_list(probe.mt(), probe.nt(), cfg);
  QRFactors f = qr_factorize_sequential(a0, b, list, ib);
  EXPECT_EQ(f.ib(), ib);

  Matrix q = build_q(f);
  EXPECT_LT(orthogonality_error(q.view()), kTol);
  const int k = std::min(m, n);
  Matrix qs = materialize(q.block(0, 0, m, k));
  Matrix r = extract_r(f);
  EXPECT_LT(factorization_residual(a0.view(), qs.view(), r.view()), kTol);
}

TEST_P(IbFactorization, RMatchesReference) {
  auto [m, n, b, ib] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m) * 41 + n * 3 + b + ib);
  Matrix a0 = random_gaussian(m, n, rng);
  TiledMatrix probe = TiledMatrix::from_matrix(a0, b);
  auto list = flat_ts_list(probe.mt(), probe.nt());
  Matrix r_ib = extract_r(qr_factorize_sequential(a0, b, list, ib));
  RefQR ref = ref_qr_unblocked(a0);
  for (int j = 0; j < r_ib.cols(); ++j)
    for (int i = 0; i <= std::min(j, r_ib.rows() - 1); ++i)
      EXPECT_NEAR(std::abs(r_ib(i, j)), std::abs(ref.a(i, j)), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IbFactorization,
    ::testing::Values(std::tuple{24, 12, 4, 2}, std::tuple{30, 18, 6, 3},
                      std::tuple{20, 20, 5, 2}, std::tuple{27, 9, 4, 3},
                      std::tuple{16, 16, 8, 4}, std::tuple{33, 11, 6, 4}));

TEST(IbFactorizationRuntime, ParallelMatchesSequentialBitwise) {
  Rng rng(71);
  Matrix a0 = random_gaussian(32, 16, rng);
  auto list = greedy_global_list(8, 4).list;
  QRFactors seq = qr_factorize_sequential(a0, 4, list, 2);
  ExecutorOptions opts{.threads = 4, .ib = 2};
  QRFactors par = qr_factorize_parallel(a0, 4, list, opts);
  Matrix rs = extract_r(seq);
  Matrix rp = extract_r(par);
  EXPECT_EQ(max_abs_diff(rs.view(), rp.view()), 0.0);
}

TEST(IbFactorizationRuntime, ParallelQBuildWithIb) {
  Rng rng(72);
  Matrix a0 = random_gaussian(24, 16, rng);
  TiledMatrix probe = TiledMatrix::from_matrix(a0, 4);
  HqrConfig cfg{2, 2, TreeKind::Binary, TreeKind::Flat, true};
  auto list = hqr_elimination_list(probe.mt(), probe.nt(), cfg);
  ExecutorOptions opts{.threads = 4, .ib = 2};
  QRFactors f = qr_factorize_parallel(a0, 4, list, opts);
  Matrix q = build_q_parallel(f, opts);
  EXPECT_LT(orthogonality_error(q.view()), kTol);
  Matrix qs = materialize(q.block(0, 0, 24, 16));
  Matrix r = extract_r(f);
  EXPECT_LT(factorization_residual(a0.view(), qs.view(), r.view()), kTol);
}

TEST(IbFactorizationRuntime, LeastSquaresWithIb) {
  Rng rng(73);
  const int m = 30, n = 8;
  Matrix a = random_gaussian(m, n, rng);
  Matrix x_true = random_gaussian(n, 1, rng);
  Matrix b(m, 1);
  gemm(Trans::No, Trans::No, 1.0, a.view(), x_true.view(), 0.0, b.view());
  TiledMatrix probe = TiledMatrix::from_matrix(a, 5);
  auto list = flat_ts_list(probe.mt(), probe.nt());
  QRFactors f = qr_factorize_sequential(a, 5, list, 2);
  TiledMatrix c = TiledMatrix::from_matrix(b, 5);
  apply_q(f, Trans::Yes, c);
  Matrix qtb = c.to_matrix();
  Matrix x = materialize(qtb.block(0, 0, n, 1));
  Matrix r = extract_r(f);
  trsm_left(UpLo::Upper, Trans::No, Diag::NonUnit,
            ConstMatrixView(r.block(0, 0, n, n)), x.view());
  EXPECT_LT(max_abs_diff(x.view(), x_true.view()), 1e-9);
}

TEST(IbFactorizationRuntime, InvalidIbThrows) {
  Rng rng(74);
  Matrix a0 = random_gaussian(8, 8, rng);
  EXPECT_THROW(qr_factorize_sequential(a0, 4, flat_ts_list(2, 2), 5), Error);
  EXPECT_THROW(qr_factorize_sequential(a0, 4, flat_ts_list(2, 2), -1), Error);
}

TEST(IbFactorizationRuntime, ZeroIbResolvesToDefaultAndShrinksT) {
  Rng rng(76);
  for (const int b : {8, 32, 40}) {
    Matrix a0 = random_gaussian(2 * b, b, rng);
    const auto list = flat_ts_list(2, 1);
    QRFactors f = qr_factorize_sequential(a0, b, list, 0);
    EXPECT_EQ(f.ib(), default_ib(b));
    EXPECT_EQ(f.t_geqrt(0, 0).rows, default_ib(b));
    EXPECT_EQ(f.t_geqrt(0, 0).cols, b);
    EXPECT_EQ(f.t_pencil(1, 0).rows, default_ib(b));
    // Bit-identical to asking for the default explicitly.
    QRFactors g = qr_factorize_sequential(a0, b, list, default_ib(b));
    Matrix rf = extract_r(f), rg = extract_r(g);
    EXPECT_EQ(max_abs_diff(rf.view(), rg.view()), 0.0);
  }
}

TEST(IbFactorizationRuntime, IbEqualToTileSizeUsesStackedLayout) {
  // ib == b is allowed: a single panel per tile; still exact.
  Rng rng(75);
  Matrix a0 = random_gaussian(16, 8, rng);
  QRFactors f = qr_factorize_sequential(a0, 4, flat_ts_list(4, 2), 4);
  Matrix q = build_q(f);
  EXPECT_LT(orthogonality_error(q.view()), kTol);
}

}  // namespace
}  // namespace hqr
