#include "runtime/qr.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/ref_qr.hpp"

namespace hqr {
namespace {

constexpr double kTol = 1e-12;

class QrApiShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(QrApiShapes, DefaultsAreExact) {
  auto [m, n, threads] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m) * 3 + n + threads);
  Matrix a = random_gaussian(m, n, rng);
  QROptions o;
  o.threads = threads;
  QRResult res = qr(a, o);
  EXPECT_EQ(res.q.rows(), m);
  EXPECT_EQ(res.q.cols(), std::min(m, n));
  EXPECT_EQ(res.r.rows(), std::min(m, n));
  EXPECT_EQ(res.r.cols(), n);
  EXPECT_LT(orthogonality_error(res.q.view()), kTol);
  EXPECT_LT(factorization_residual(a.view(), res.q.view(), res.r.view()),
            kTol);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrApiShapes,
    ::testing::Values(std::tuple{100, 60, 1}, std::tuple{100, 60, 4},
                      std::tuple{400, 24, 2}, std::tuple{64, 64, 4},
                      std::tuple{37, 53, 2}, std::tuple{9, 9, 1},
                      std::tuple{1, 1, 1}, std::tuple{200, 8, 8}));

TEST(QrApi, ExplicitConfigRespected) {
  Rng rng(5);
  Matrix a = random_gaussian(80, 40, rng);
  QROptions o;
  o.b = 10;
  o.ib = 5;
  o.threads = 2;
  o.auto_tree = false;
  o.tree = HqrConfig{2, 2, TreeKind::Flat, TreeKind::Flat, false};
  QRResult res = qr(a, o);
  EXPECT_EQ(res.b, 10);
  EXPECT_EQ(res.ib, 5);
  EXPECT_EQ(res.tree.low, TreeKind::Flat);
  EXPECT_LT(orthogonality_error(res.q.view()), kTol);
}

// With b and the tree given, an unset ib reaches QRFactors as 0 and runs at
// default_ib(b) — not clamped to 1 (column-at-a-time inner blocking).
TEST(QrApi, UnsetIbWithExplicitTileAndTreeUsesDefaultIb) {
  Rng rng(11);
  Matrix a = random_gaussian(96, 64, rng);
  Matrix rhs = random_gaussian(96, 2, rng);
  QROptions o;
  o.b = 32;
  o.ib = 0;
  o.threads = 2;
  o.auto_tree = false;
  o.tree = HqrConfig{1, 1, TreeKind::Flat, TreeKind::Flat, false};
  QRResult res = qr(a, o);
  EXPECT_EQ(res.ib, 32);
  EXPECT_LT(factorization_residual(a.view(), res.q.view(), res.r.view()),
            kTol);

  // qr_solve returns no options: its x must be bit-identical to an explicit
  // ib = 32 solve and differ from the ib = 1 one the old clamp produced.
  const Matrix x0 = qr_solve(a, rhs, o);
  QROptions o32 = o, o1 = o;
  o32.ib = 32;
  o1.ib = 1;
  EXPECT_EQ(max_abs_diff(x0.view(), qr_solve(a, rhs, o32).view()), 0.0);
  EXPECT_NE(max_abs_diff(x0.view(), qr_solve(a, rhs, o1).view()), 0.0);
}

TEST(QrApi, DefaultOptionsHeuristics) {
  // Tall-skinny: domino coupling on; square-ish: off.
  QROptions ts = default_qr_options(100000, 600, 8);
  EXPECT_TRUE(ts.tree.domino);
  QROptions sq = default_qr_options(2000, 2000, 8);
  EXPECT_FALSE(sq.tree.domino);
  EXPECT_GE(ts.b, 8);
  EXPECT_LE(sq.b, 64);
  EXPECT_GE(ts.ib, 1);
  EXPECT_LE(ts.ib, ts.b);
}

// Right-hand side widths around the tile size: with nrhs not a multiple of
// b, Q^T runs on narrow views of C's last tile column.
constexpr int kSolveB = 8;

class QrApiSolve : public ::testing::TestWithParam<int> {};

TEST_P(QrApiSolve, SolveMatchesReference) {
  const int nrhs = GetParam();
  Rng rng(7);
  const int m = 150, n = 20;
  Matrix a = random_gaussian(m, n, rng);
  Matrix rhs = random_gaussian(m, nrhs, rng);
  QROptions o;
  o.b = kSolveB;
  o.ib = 4;
  o.auto_tree = false;
  o.tree = HqrConfig{4, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
  o.threads = 4;
  Matrix x = qr_solve(a, rhs, o);
  Matrix x_ref = least_squares(a, rhs);
  EXPECT_LT(max_abs_diff(x.view(), x_ref.view()), 1e-9);
  // The apply DAG chains every C tile, so any schedule gives the same bits.
  o.threads = 1;
  Matrix x1 = qr_solve(a, rhs, o);
  EXPECT_EQ(max_abs_diff(x.view(), x1.view()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Nrhs, QrApiSolve,
                         ::testing::Values(1, 3, kSolveB + 3));

TEST(QrApi, SolveRecoversPlantedSolution) {
  Rng rng(8);
  const int m = 90, n = 12;
  Matrix a = random_gaussian(m, n, rng);
  Matrix x_true = random_gaussian(n, 2, rng);
  Matrix rhs(m, 2);
  gemm(Trans::No, Trans::No, 1.0, a.view(), x_true.view(), 0.0, rhs.view());
  Matrix x = qr_solve(a, rhs);
  EXPECT_LT(max_abs_diff(x.view(), x_true.view()), 1e-9);
}

TEST(QrApi, RejectsEmptyAndWideSolve) {
  Matrix empty(0, 0);
  EXPECT_THROW(qr(empty), Error);
  Matrix wide(3, 5), rhs(3, 1);
  EXPECT_THROW(qr_solve(wide, rhs), Error);
}

TEST(QrApi, WideMatrixFactors) {
  Rng rng(9);
  Matrix a = random_gaussian(20, 50, rng);
  QRResult res = qr(a);
  EXPECT_EQ(res.q.cols(), 20);
  EXPECT_EQ(res.r.rows(), 20);
  EXPECT_LT(orthogonality_error(res.q.view()), kTol);
  EXPECT_LT(factorization_residual(a.view(), res.q.view(), res.r.view()),
            kTol);
}

}  // namespace
}  // namespace hqr
