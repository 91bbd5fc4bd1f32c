#include "kernels/ib_kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/ref_qr.hpp"

namespace hqr {
namespace {

constexpr double kTol = 1e-12;

// Dense Q = I - V T V^T for an explicit (possibly trapezoidal) V.
Matrix dense_q(const Matrix& v, const Matrix& t) {
  const int m = v.rows();
  Matrix vt(v.cols(), m);
  Matrix q = Matrix::identity(m);
  Matrix tv(v.rows(), v.cols());
  gemm(Trans::No, Trans::No, 1.0, v.view(), t.view(), 0.0, tv.view());
  gemm(Trans::No, Trans::Yes, -1.0, tv.view(), v.view(), 1.0, q.view());
  return q;
}

// Explicit V from a GEQRT-factored tile: unit lower triangular b x b.
Matrix explicit_v_geqrt(ConstMatrixView a) {
  Matrix v(a.rows, a.cols);
  for (int j = 0; j < a.cols; ++j) {
    v(j, j) = 1.0;
    for (int i = j + 1; i < a.rows; ++i) v(i, j) = a(i, j);
  }
  return v;
}

// Explicit V for TSQRT: [I_b; V2] with dense V2.
Matrix explicit_v_ts(ConstMatrixView v2) {
  const int b = v2.rows;
  Matrix v(2 * b, b);
  for (int j = 0; j < b; ++j) {
    v(j, j) = 1.0;
    for (int i = 0; i < b; ++i) v(b + i, j) = v2(i, j);
  }
  return v;
}

// Explicit V for TTQRT: [I_b; triu(V2)].
Matrix explicit_v_tt(ConstMatrixView v2) {
  const int b = v2.rows;
  Matrix v(2 * b, b);
  for (int j = 0; j < b; ++j) {
    v(j, j) = 1.0;
    for (int i = 0; i <= j; ++i) v(b + i, j) = v2(i, j);
  }
  return v;
}

Matrix upper_of(ConstMatrixView a) {
  Matrix r(a.rows, a.cols);
  for (int j = 0; j < a.cols; ++j)
    for (int i = 0; i <= j && i < a.rows; ++i) r(i, j) = a(i, j);
  return r;
}

class KernelSizes : public ::testing::TestWithParam<int> {};

TEST_P(KernelSizes, GeqrtFactorsTileExactly) {
  const int b = GetParam();
  Rng rng(b * 17);
  Matrix a0 = random_gaussian(b, b, rng);
  Matrix a = a0;
  Matrix t(b, b);
  TileWorkspace ws(b);
  geqrt(a.view(), t.view(), ws);

  Matrix q = dense_q(explicit_v_geqrt(a.view()), t);
  EXPECT_LT(orthogonality_error(q.view()), kTol);
  // Q^T A0 == R.
  Matrix r(b, b);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), a0.view(), 0.0, r.view());
  Matrix r_expect = upper_of(a.view());
  EXPECT_LT(max_abs_diff(r.view(), r_expect.view()), kTol);
  // Below-diagonal part of Q^T A0 is numerically zero.
  for (int j = 0; j < b; ++j)
    for (int i = j + 1; i < b; ++i) EXPECT_NEAR(r(i, j), 0.0, kTol);
}

TEST_P(KernelSizes, GeqrtMatchesReferenceRUpToSigns) {
  const int b = GetParam();
  Rng rng(b * 19);
  Matrix a0 = random_gaussian(b, b, rng);
  Matrix a = a0;
  Matrix t(b, b);
  TileWorkspace ws(b);
  geqrt(a.view(), t.view(), ws);
  RefQR ref = ref_qr_unblocked(a0);
  for (int j = 0; j < b; ++j)
    for (int i = 0; i <= j; ++i)
      EXPECT_NEAR(std::abs(a(i, j)), std::abs(ref.a(i, j)), 1e-11);
}

TEST_P(KernelSizes, UnmqrAppliesDenseQ) {
  const int b = GetParam();
  Rng rng(b * 23);
  Matrix a = random_gaussian(b, b, rng);
  Matrix t(b, b);
  TileWorkspace ws(b);
  geqrt(a.view(), t.view(), ws);
  Matrix q = dense_q(explicit_v_geqrt(a.view()), t);

  Matrix c0 = random_gaussian(b, b, rng);
  Matrix c = c0;
  unmqr(a.view(), t.view(), Trans::Yes, c.view(), ws);
  Matrix expect(b, b);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), c0.view(), 0.0, expect.view());
  EXPECT_LT(max_abs_diff(c.view(), expect.view()), kTol);

  // Trans::No undoes Trans::Yes.
  unmqr(a.view(), t.view(), Trans::No, c.view(), ws);
  EXPECT_LT(max_abs_diff(c.view(), c0.view()), kTol);
}

TEST_P(KernelSizes, TsqrtFactorsPencilExactly) {
  const int b = GetParam();
  Rng rng(b * 29);
  // R1 with garbage below the diagonal (stands in for the killer's GEQRT V).
  Matrix a1 = random_gaussian(b, b, rng);
  Matrix a2_0 = random_gaussian(b, b, rng);
  Matrix a1_lower0(b, b);
  for (int j = 0; j < b; ++j)
    for (int i = j + 1; i < b; ++i) a1_lower0(i, j) = a1(i, j);
  Matrix r1_0 = upper_of(a1.view());

  Matrix a2 = a2_0;
  Matrix t(b, b);
  TileWorkspace ws(b);
  tsqrt(a1.view(), a2.view(), t.view(), ws);

  // Strictly-lower part of A1 untouched.
  for (int j = 0; j < b; ++j)
    for (int i = j + 1; i < b; ++i) EXPECT_EQ(a1(i, j), a1_lower0(i, j));

  // Dense check on the 2b x b pencil.
  Matrix p(2 * b, b);
  copy(r1_0.view(), p.block(0, 0, b, b));
  copy(a2_0.view(), p.block(b, 0, b, b));
  Matrix q = dense_q(explicit_v_ts(a2.view()), t);
  EXPECT_LT(orthogonality_error(q.view()), kTol);

  Matrix qtp(2 * b, b);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), p.view(), 0.0, qtp.view());
  Matrix r_new = upper_of(a1.view());
  EXPECT_LT(max_abs_diff(qtp.block(0, 0, b, b),
                         ConstMatrixView(r_new.view())),
            kTol);
  EXPECT_LT(max_norm(qtp.block(b, 0, b, b)), kTol);
}

TEST_P(KernelSizes, TsmqrAppliesDenseQ) {
  const int b = GetParam();
  Rng rng(b * 31);
  Matrix a1 = random_gaussian(b, b, rng);
  Matrix a2 = random_gaussian(b, b, rng);
  Matrix t(b, b);
  TileWorkspace ws(b);
  tsqrt(a1.view(), a2.view(), t.view(), ws);
  Matrix q = dense_q(explicit_v_ts(a2.view()), t);

  Matrix c1_0 = random_gaussian(b, b, rng);
  Matrix c2_0 = random_gaussian(b, b, rng);
  Matrix c1 = c1_0, c2 = c2_0;
  tsmqr(c1.view(), c2.view(), a2.view(), t.view(), Trans::Yes, ws);

  Matrix cc(2 * b, b);
  copy(c1_0.view(), cc.block(0, 0, b, b));
  copy(c2_0.view(), cc.block(b, 0, b, b));
  Matrix expect(2 * b, b);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), cc.view(), 0.0, expect.view());
  EXPECT_LT(max_abs_diff(c1.view(), expect.block(0, 0, b, b)), kTol);
  EXPECT_LT(max_abs_diff(c2.view(), expect.block(b, 0, b, b)), kTol);

  // Round trip.
  tsmqr(c1.view(), c2.view(), a2.view(), t.view(), Trans::No, ws);
  EXPECT_LT(max_abs_diff(c1.view(), c1_0.view()), kTol);
  EXPECT_LT(max_abs_diff(c2.view(), c2_0.view()), kTol);
}

TEST_P(KernelSizes, TtqrtFactorsTrianglePairExactly) {
  const int b = GetParam();
  Rng rng(b * 37);
  Matrix a1 = random_gaussian(b, b, rng);
  Matrix a2 = random_gaussian(b, b, rng);
  Matrix r1_0 = upper_of(a1.view());
  Matrix r2_0 = upper_of(a2.view());
  // Record the strict lower parts: both must be untouched.
  Matrix low1 = a1, low2 = a2;

  Matrix t(b, b);
  TileWorkspace ws(b);
  ttqrt(a1.view(), a2.view(), t.view(), ws);

  for (int j = 0; j < b; ++j)
    for (int i = j + 1; i < b; ++i) {
      EXPECT_EQ(a1(i, j), low1(i, j));
      EXPECT_EQ(a2(i, j), low2(i, j));
    }

  Matrix p(2 * b, b);
  copy(r1_0.view(), p.block(0, 0, b, b));
  copy(r2_0.view(), p.block(b, 0, b, b));
  Matrix q = dense_q(explicit_v_tt(a2.view()), t);
  EXPECT_LT(orthogonality_error(q.view()), kTol);

  Matrix qtp(2 * b, b);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), p.view(), 0.0, qtp.view());
  Matrix r_new = upper_of(a1.view());
  EXPECT_LT(max_abs_diff(qtp.block(0, 0, b, b),
                         ConstMatrixView(r_new.view())),
            kTol);
  EXPECT_LT(max_norm(qtp.block(b, 0, b, b)), kTol);
}

TEST_P(KernelSizes, TtmqrAppliesDenseQ) {
  const int b = GetParam();
  Rng rng(b * 41);
  Matrix a1 = random_gaussian(b, b, rng);
  Matrix a2 = random_gaussian(b, b, rng);
  // Plant recognizable garbage strictly below a2's diagonal: TTMQR must not
  // read it.
  for (int j = 0; j < b; ++j)
    for (int i = j + 1; i < b; ++i) a2(i, j) = 1e30;
  Matrix t(b, b);
  TileWorkspace ws(b);
  ttqrt(a1.view(), a2.view(), t.view(), ws);
  Matrix q = dense_q(explicit_v_tt(a2.view()), t);

  Matrix c1_0 = random_gaussian(b, b, rng);
  Matrix c2_0 = random_gaussian(b, b, rng);
  Matrix c1 = c1_0, c2 = c2_0;
  ttmqr(c1.view(), c2.view(), a2.view(), t.view(), Trans::Yes, ws);

  Matrix cc(2 * b, b);
  copy(c1_0.view(), cc.block(0, 0, b, b));
  copy(c2_0.view(), cc.block(b, 0, b, b));
  Matrix expect(2 * b, b);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), cc.view(), 0.0, expect.view());
  EXPECT_LT(max_abs_diff(c1.view(), expect.block(0, 0, b, b)), kTol);
  EXPECT_LT(max_abs_diff(c2.view(), expect.block(b, 0, b, b)), kTol);

  ttmqr(c1.view(), c2.view(), a2.view(), t.view(), Trans::No, ws);
  EXPECT_LT(max_abs_diff(c1.view(), c1_0.view()), kTol);
  EXPECT_LT(max_abs_diff(c2.view(), c2_0.view()), kTol);
}

INSTANTIATE_TEST_SUITE_P(TileSizes, KernelSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16));

// End-to-end: a 3-tile panel [A0; A1; A2] reduced with GEQRT + two TSQRTs
// (flat TS chain) must reproduce the reference R of the stacked 3b x b panel.
TEST(KernelComposition, TsChainMatchesReferencePanelQr) {
  const int b = 4;
  Rng rng(99);
  Matrix t0 = random_gaussian(b, b, rng);
  Matrix t1 = random_gaussian(b, b, rng);
  Matrix t2 = random_gaussian(b, b, rng);
  Matrix stacked(3 * b, b);
  copy(t0.view(), stacked.block(0, 0, b, b));
  copy(t1.view(), stacked.block(b, 0, b, b));
  copy(t2.view(), stacked.block(2 * b, 0, b, b));

  TileWorkspace ws(b);
  Matrix tg(b, b), tt1(b, b), tt2(b, b);
  geqrt(t0.view(), tg.view(), ws);
  tsqrt(t0.view(), t1.view(), tt1.view(), ws);
  tsqrt(t0.view(), t2.view(), tt2.view(), ws);

  RefQR ref = ref_qr_unblocked(stacked);
  for (int j = 0; j < b; ++j)
    for (int i = 0; i <= j; ++i)
      EXPECT_NEAR(std::abs(t0(i, j)), std::abs(ref.a(i, j)), 1e-11);
}

// Binary TT reduction of two GEQRT'd tiles matches the reference R too.
TEST(KernelComposition, TtReductionMatchesReferencePanelQr) {
  const int b = 5;
  Rng rng(101);
  Matrix t0 = random_gaussian(b, b, rng);
  Matrix t1 = random_gaussian(b, b, rng);
  Matrix stacked(2 * b, b);
  copy(t0.view(), stacked.block(0, 0, b, b));
  copy(t1.view(), stacked.block(b, 0, b, b));

  TileWorkspace ws(b);
  Matrix tg0(b, b), tg1(b, b), tt(b, b);
  geqrt(t0.view(), tg0.view(), ws);
  geqrt(t1.view(), tg1.view(), ws);
  ttqrt(t0.view(), t1.view(), tt.view(), ws);

  RefQR ref = ref_qr_unblocked(stacked);
  for (int j = 0; j < b; ++j)
    for (int i = 0; i <= j; ++i)
      EXPECT_NEAR(std::abs(t0(i, j)), std::abs(ref.a(i, j)), 1e-11);
}

// Zero tiles: all kernels must be well-defined (tau = 0 paths).
TEST(KernelEdgeCases, ZeroTilesProduceZeroTaus) {
  const int b = 3;
  Matrix a(b, b), t(b, b);
  TileWorkspace ws(b);
  geqrt(a.view(), t.view(), ws);
  EXPECT_EQ(max_norm(t.view()), 0.0);
  EXPECT_EQ(max_norm(a.view()), 0.0);

  Matrix a1(b, b), a2(b, b), t2(b, b);
  tsqrt(a1.view(), a2.view(), t2.view(), ws);
  EXPECT_EQ(max_norm(t2.view()), 0.0);
}

// TSQRT with an already-zero A2 leaves R1 unchanged.
TEST(KernelEdgeCases, TsqrtWithZeroSquareIsIdentity) {
  const int b = 4;
  Rng rng(7);
  Matrix a1 = random_gaussian(b, b, rng);
  Matrix r1 = a1;
  Matrix a2(b, b), t(b, b);
  TileWorkspace ws(b);
  tsqrt(a1.view(), a2.view(), t.view(), ws);
  EXPECT_LT(max_abs_diff(a1.view(), r1.view()), 1e-15);
  EXPECT_EQ(max_norm(t.view()), 0.0);
}

}  // namespace
}  // namespace hqr
