// End-to-end numeric validation: every elimination-list algorithm must
// deliver A = QR with orthonormal Q at machine precision — the paper's §V-A
// correctness protocol ("all checks were satisfactory up to machine
// precision").
#include "core/factorization.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/ref_qr.hpp"
#include "trees/hqr_tree.hpp"
#include "trees/single_level.hpp"
#include "trees/validate.hpp"

namespace hqr {
namespace {

constexpr double kTol = 1e-12;

EliminationList make_list(const std::string& algo, int mt, int nt) {
  if (algo == "flat_ts") return flat_ts_list(mt, nt);
  if (algo == "binary") return per_panel_tree_list(TreeKind::Binary, mt, nt);
  if (algo == "fibonacci")
    return per_panel_tree_list(TreeKind::Fibonacci, mt, nt);
  if (algo == "greedy") return greedy_global_list(mt, nt).list;
  if (algo == "hqr") {
    HqrConfig cfg{3, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
    return hqr_elimination_list(mt, nt, cfg);
  }
  if (algo == "hqr_nodomino") {
    HqrConfig cfg{2, 2, TreeKind::Binary, TreeKind::Flat, false};
    return hqr_elimination_list(mt, nt, cfg);
  }
  if (algo == "slhd10") {
    return hqr_elimination_list(mt, nt, slhd10_config(mt, 3));
  }
  HQR_CHECK(false, "unknown algo " << algo);
}

void expect_exact_qr(const Matrix& a0, const QRFactors& f) {
  Matrix q = build_q(f);
  // Padded orthogonality, then unpadded residual.
  EXPECT_LT(orthogonality_error(q.view()), kTol);
  const int k = std::min(f.m(), f.n());
  Matrix q_slice = materialize(q.block(0, 0, a0.rows(), k));
  Matrix r = extract_r(f);
  EXPECT_LT(factorization_residual(a0.view(), q_slice.view(), r.view()), kTol);
}

// (m, n, b, algorithm)
class FactorizationSweep
    : public ::testing::TestWithParam<
          std::tuple<std::tuple<int, int, int>, std::string>> {};

TEST_P(FactorizationSweep, ExactAndOrthogonal) {
  auto [shape, algo] = GetParam();
  auto [m, n, b] = shape;
  Rng rng(static_cast<std::uint64_t>(m) * 7919 + n * 131 + b);
  Matrix a0 = random_gaussian(m, n, rng);
  TiledMatrix probe = TiledMatrix::from_matrix(a0, b);
  auto list = make_list(algo, probe.mt(), probe.nt());
  check_valid(list, probe.mt(), probe.nt());
  QRFactors f = qr_factorize_sequential(a0, b, list);
  expect_exact_qr(a0, f);
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndShapes, FactorizationSweep,
    ::testing::Combine(
        ::testing::Values(std::tuple{12, 12, 4}, std::tuple{24, 8, 4},
                          std::tuple{30, 10, 3}, std::tuple{13, 7, 4},
                          std::tuple{40, 12, 5}, std::tuple{9, 9, 3},
                          std::tuple{21, 6, 2}, std::tuple{8, 20, 4},
                          std::tuple{10, 31, 3}),
        ::testing::Values("flat_ts", "binary", "fibonacci", "greedy", "hqr",
                          "hqr_nodomino", "slhd10")));

TEST(Factorization, RMatchesReferenceUpToSigns) {
  Rng rng(5);
  Matrix a0 = random_gaussian(20, 12, rng);
  HqrConfig cfg{2, 2, TreeKind::Greedy, TreeKind::Binary, true};
  TiledMatrix probe = TiledMatrix::from_matrix(a0, 4);
  QRFactors f = qr_factorize_sequential(
      a0, 4, hqr_elimination_list(probe.mt(), probe.nt(), cfg));
  Matrix r = extract_r(f);
  RefQR ref = ref_qr_blocked(a0, 4);
  for (int j = 0; j < 12; ++j)
    for (int i = 0; i <= j; ++i)
      EXPECT_NEAR(std::abs(r(i, j)), std::abs(ref.a(i, j)), 1e-10)
          << "(" << i << "," << j << ")";
}

// extract_r reads the factored tiles: R(i, j) == a().at(i, j) bit for bit
// for i <= j and i < min(m, n), zero below the diagonal.
class RReadout : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RReadout, ExtractRIsTheTilesUpperTrapezoid) {
  auto [m, n] = GetParam();
  const int b = 8;
  Rng rng(static_cast<std::uint64_t>(m) * 17 + n);
  const QRFactors f = qr_factorize_sequential(
      random_gaussian(m, n, rng), b,
      make_list("hqr", TiledMatrix::tile_count(m, b),
                TiledMatrix::tile_count(n, b)));
  const Matrix r = extract_r(f);
  const int k = std::min(m, n);
  ASSERT_EQ(r.rows(), k);
  ASSERT_EQ(r.cols(), n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < k; ++i)
      EXPECT_EQ(r(i, j), i <= j ? f.a().at(i, j) : 0.0)
          << "(" << i << "," << j << ")";
}

INSTANTIATE_TEST_SUITE_P(Shapes, RReadout,
                         ::testing::Values(std::tuple{53, 37},
                                           std::tuple{37, 53},
                                           std::tuple{5, 3}));

TEST(Factorization, ApplyQTransposeGivesR) {
  Rng rng(7);
  Matrix a0 = random_gaussian(16, 8, rng);
  QRFactors f = qr_factorize_sequential(a0, 4, flat_ts_list(4, 2));
  TiledMatrix c = TiledMatrix::from_matrix(a0, 4);
  apply_q(f, Trans::Yes, c);
  Matrix qta = c.to_matrix();
  Matrix r = extract_r(f);
  for (int j = 0; j < 8; ++j)
    for (int i = 0; i < 16; ++i)
      EXPECT_NEAR(qta(i, j), (i <= j && i < 8) ? r(i, j) : 0.0, kTol);
}

TEST(Factorization, ApplyQRoundTrip) {
  Rng rng(8);
  Matrix a0 = random_gaussian(12, 12, rng);
  QRFactors f = qr_factorize_sequential(
      a0, 3, per_panel_tree_list(TreeKind::Greedy, 4, 4));
  Matrix c0 = random_gaussian(12, 5, rng);
  TiledMatrix c = TiledMatrix::from_matrix(c0, 3);
  apply_q(f, Trans::Yes, c);
  apply_q(f, Trans::No, c);
  Matrix back = c.to_matrix();
  EXPECT_LT(max_abs_diff(back.view(), c0.view()), kTol);
}

TEST(Factorization, LeastSquaresMatchesReference) {
  Rng rng(9);
  const int m = 36, n = 10;
  Matrix a = random_gaussian(m, n, rng);
  Matrix b = random_gaussian(m, 2, rng);
  HqrConfig cfg{3, 2, TreeKind::Greedy, TreeKind::Greedy, true};
  TiledMatrix probe = TiledMatrix::from_matrix(a, 4);
  Matrix x_tile = tile_least_squares(
      a, b, 4, hqr_elimination_list(probe.mt(), probe.nt(), cfg));
  Matrix x_ref = least_squares(a, b);
  EXPECT_LT(max_abs_diff(x_tile.view(), x_ref.view()), 1e-9);
}

TEST(Factorization, RaggedEdgesArePaddedCorrectly) {
  // m, n not multiples of b: padding must not leak into Q or R.
  Rng rng(10);
  Matrix a0 = random_gaussian(17, 9, rng);
  QRFactors f = qr_factorize_sequential(a0, 4, flat_ts_list(5, 3));
  expect_exact_qr(a0, f);
}

TEST(Factorization, GradedMatrixStaysAccurate) {
  Rng rng(11);
  Matrix a0 = random_graded(24, 8, 8.0, rng);
  QRFactors f = qr_factorize_sequential(
      a0, 4, per_panel_tree_list(TreeKind::Binary, 6, 2));
  expect_exact_qr(a0, f);
}

TEST(Factorization, NearRankDeficientStaysAccurate) {
  Rng rng(12);
  Matrix a0 = random_near_rank_deficient(24, 8, 3, 1e-11, rng);
  QRFactors f = qr_factorize_sequential(a0, 4, flat_ts_list(6, 2));
  expect_exact_qr(a0, f);
}

TEST(Factorization, ZeroMatrix) {
  Matrix a0(12, 8);
  QRFactors f = qr_factorize_sequential(a0, 4, flat_ts_list(3, 2));
  Matrix r = extract_r(f);
  EXPECT_EQ(max_norm(r.view()), 0.0);
  Matrix q = build_q(f);
  EXPECT_LT(orthogonality_error(q.view()), kTol);
}

TEST(Factorization, SingleTile) {
  Rng rng(13);
  Matrix a0 = random_gaussian(4, 4, rng);
  QRFactors f = qr_factorize_sequential(a0, 4, flat_ts_list(1, 1));
  expect_exact_qr(a0, f);
}

TEST(Factorization, TileSizeLargerThanMatrix) {
  Rng rng(14);
  Matrix a0 = random_gaussian(3, 2, rng);
  QRFactors f = qr_factorize_sequential(a0, 8, flat_ts_list(1, 1));
  expect_exact_qr(a0, f);
}

TEST(Factorization, DifferentTreesGiveSameRMagnitudes) {
  // R is unique up to signs: all algorithms must agree.
  Rng rng(15);
  Matrix a0 = random_gaussian(24, 12, rng);
  auto r1 = extract_r(qr_factorize_sequential(a0, 4, flat_ts_list(6, 3)));
  auto r2 = extract_r(qr_factorize_sequential(
      a0, 4, greedy_global_list(6, 3).list));
  HqrConfig cfg{3, 1, TreeKind::Binary, TreeKind::Greedy, true};
  auto r3 = extract_r(
      qr_factorize_sequential(a0, 4, hqr_elimination_list(6, 3, cfg)));
  for (int j = 0; j < 12; ++j)
    for (int i = 0; i <= j; ++i) {
      EXPECT_NEAR(std::abs(r1(i, j)), std::abs(r2(i, j)), 1e-10);
      EXPECT_NEAR(std::abs(r1(i, j)), std::abs(r3(i, j)), 1e-10);
    }
}

TEST(Factorization, ApplyQRejectsMismatchedTiles) {
  Rng rng(16);
  Matrix a0 = random_gaussian(8, 8, rng);
  QRFactors f = qr_factorize_sequential(a0, 4, flat_ts_list(2, 2));
  TiledMatrix c(8, 2, 2);  // wrong tile size
  EXPECT_THROW(apply_q(f, Trans::Yes, c), Error);
}

}  // namespace
}  // namespace hqr
