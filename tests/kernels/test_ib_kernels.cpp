#include "kernels/ib_kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/ref_qr.hpp"

namespace hqr {
namespace {

constexpr double kTol = 1e-12;

Matrix upper_of(ConstMatrixView a) {
  Matrix r(a.rows, a.cols);
  for (int j = 0; j < a.cols; ++j)
    for (int i = 0; i <= j && i < a.rows; ++i) r(i, j) = a(i, j);
  return r;
}

// Dense Q of one panel reflector: I - V T V^T with explicit V (m x w).
Matrix panel_q(const Matrix& v, ConstMatrixView t) {
  const int m = v.rows();
  Matrix q = Matrix::identity(m);
  Matrix vt(m, v.cols());
  gemm(Trans::No, Trans::No, 1.0, v.view(), t, 0.0, vt.view());
  gemm(Trans::No, Trans::Yes, -1.0, vt.view(), v.view(), 1.0, q.view());
  return q;
}

// Accumulated dense Q = Q_p0 Q_p1 ... for a geqrt_ib tile.
Matrix dense_q_geqrt_ib(ConstMatrixView a, ConstMatrixView t, int ib) {
  const int b = a.rows;
  Matrix q = Matrix::identity(b);
  for (int j0 = 0; j0 < b; j0 += ib) {
    const int w = std::min(ib, b - j0);
    Matrix v(b, w);
    for (int l = 0; l < w; ++l) {
      v(j0 + l, l) = 1.0;
      for (int i = j0 + l + 1; i < b; ++i) v(i, l) = a(i, j0 + l);
    }
    Matrix qp = panel_q(v, t.block(0, j0, w, w));
    Matrix acc(b, b);
    gemm(Trans::No, Trans::No, 1.0, q.view(), qp.view(), 0.0, acc.view());
    q = acc;
  }
  return q;
}

// Accumulated dense Q for tsqrt_ib / ttqrt_ib on the 2b x b pencil.
Matrix dense_q_pencil_ib(ConstMatrixView v2, ConstMatrixView t, int ib,
                         bool triangular) {
  const int b = v2.rows;
  Matrix q = Matrix::identity(2 * b);
  for (int j0 = 0; j0 < b; j0 += ib) {
    const int w = std::min(ib, b - j0);
    Matrix v(2 * b, w);
    for (int l = 0; l < w; ++l) {
      v(j0 + l, l) = 1.0;
      const int rows = triangular ? j0 + l + 1 : b;
      for (int r = 0; r < rows; ++r) v(b + r, l) = v2(r, j0 + l);
    }
    Matrix qp = panel_q(v, t.block(0, j0, w, w));
    Matrix acc(2 * b, 2 * b);
    gemm(Trans::No, Trans::No, 1.0, q.view(), qp.view(), 0.0, acc.view());
    q = acc;
  }
  return q;
}

// (b, ib)
class IbSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(IbSizes, GeqrtIbFactorsExactly) {
  auto [b, ib] = GetParam();
  Rng rng(b * 100 + ib);
  Matrix a0 = random_gaussian(b, b, rng);
  Matrix a = a0;
  Matrix t(b, b);
  TileWorkspace ws(b);
  geqrt_ib(a.view(), t.view(), ib, ws);

  Matrix q = dense_q_geqrt_ib(a.view(), t.view(), ib);
  EXPECT_LT(orthogonality_error(q.view()), kTol);
  Matrix r(b, b);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), a0.view(), 0.0, r.view());
  Matrix r_expect = upper_of(a.view());
  EXPECT_LT(max_abs_diff(r.view(), r_expect.view()), kTol);
}

TEST_P(IbSizes, GeqrtIbRMatchesReference) {
  auto [b, ib] = GetParam();
  Rng rng(b * 101 + ib);
  Matrix a0 = random_gaussian(b, b, rng);
  TileWorkspace ws(b);
  Matrix a_ib = a0, t_ib(ib, b);
  geqrt_ib(a_ib.view(), t_ib.view(), ib, ws);
  RefQR ref = ref_qr_unblocked(a0);
  for (int j = 0; j < b; ++j)
    for (int i = 0; i <= j; ++i)
      EXPECT_NEAR(std::abs(a_ib(i, j)), std::abs(ref.a(i, j)), 1e-11);
}

// The kernels read and write only the first ib rows of T: an ib x b buffer
// (the factorization's layout) gives the same bits as a b x b one, and the
// rows past ib of a b x b buffer stay untouched.
TEST_P(IbSizes, IbRowTBufferMatchesSquareBuffer) {
  auto [b, ib] = GetParam();
  Rng rng(b * 107 + ib);
  const Matrix a1_0 = random_gaussian(b, b, rng);
  const Matrix a2_0 = random_gaussian(b, b, rng);
  const Matrix c1_0 = random_gaussian(b, b, rng);
  const Matrix c2_0 = random_gaussian(b, b, rng);
  TileWorkspace ws(b);
  const auto same = [](ConstMatrixView x, ConstMatrixView y) {
    for (int j = 0; j < x.cols; ++j)
      for (int i = 0; i < x.rows; ++i)
        if (x(i, j) != y(i, j)) return false;
    return true;
  };
  for (int kind = 0; kind < 3; ++kind) {
    Matrix a1s = a1_0, a2s = a2_0, ts(b, b);
    Matrix a1n = a1_0, a2n = a2_0, tn(ib, b);
    for (int j = 0; j < b; ++j)
      for (int i = ib; i < b; ++i) ts(i, j) = 7.0;  // sentinel
    Matrix c1s = c1_0, c2s = c2_0, c1n = c1_0, c2n = c2_0;
    if (kind == 0) {
      geqrt_ib(a1s.view(), ts.view(), ib, ws);
      geqrt_ib(a1n.view(), tn.view(), ib, ws);
      unmqr_ib(a1s.view(), ts.view(), ib, Trans::Yes, c1s.view(), ws);
      unmqr_ib(a1n.view(), tn.view(), ib, Trans::Yes, c1n.view(), ws);
    } else if (kind == 1) {
      tsqrt_ib(a1s.view(), a2s.view(), ts.view(), ib, ws);
      tsqrt_ib(a1n.view(), a2n.view(), tn.view(), ib, ws);
      tsmqr_ib(c1s.view(), c2s.view(), a2s.view(), ts.view(), ib, Trans::Yes,
               ws);
      tsmqr_ib(c1n.view(), c2n.view(), a2n.view(), tn.view(), ib, Trans::Yes,
               ws);
    } else {
      ttqrt_ib(a1s.view(), a2s.view(), ts.view(), ib, ws);
      ttqrt_ib(a1n.view(), a2n.view(), tn.view(), ib, ws);
      ttmqr_ib(c1s.view(), c2s.view(), a2s.view(), ts.view(), ib, Trans::Yes,
               ws);
      ttmqr_ib(c1n.view(), c2n.view(), a2n.view(), tn.view(), ib, Trans::Yes,
               ws);
    }
    EXPECT_TRUE(same(a1s.view(), a1n.view())) << "kind " << kind;
    EXPECT_TRUE(same(a2s.view(), a2n.view())) << "kind " << kind;
    EXPECT_TRUE(same(ts.block(0, 0, ib, b), tn.view())) << "kind " << kind;
    EXPECT_TRUE(same(c1s.view(), c1n.view())) << "kind " << kind;
    EXPECT_TRUE(same(c2s.view(), c2n.view())) << "kind " << kind;
    for (int j = 0; j < b; ++j)
      for (int i = ib; i < b; ++i) ASSERT_EQ(ts(i, j), 7.0) << "kind " << kind;
  }
}

TEST_P(IbSizes, UnmqrIbRoundTrips) {
  auto [b, ib] = GetParam();
  Rng rng(b * 102 + ib);
  Matrix a = random_gaussian(b, b, rng);
  Matrix t(b, b);
  TileWorkspace ws(b);
  geqrt_ib(a.view(), t.view(), ib, ws);
  Matrix c0 = random_gaussian(b, b, rng);
  Matrix c = c0;
  unmqr_ib(a.view(), t.view(), ib, Trans::Yes, c.view(), ws);
  Matrix q = dense_q_geqrt_ib(a.view(), t.view(), ib);
  Matrix expect(b, b);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), c0.view(), 0.0, expect.view());
  EXPECT_LT(max_abs_diff(c.view(), expect.view()), kTol);
  unmqr_ib(a.view(), t.view(), ib, Trans::No, c.view(), ws);
  EXPECT_LT(max_abs_diff(c.view(), c0.view()), kTol);
}

TEST_P(IbSizes, TsqrtIbFactorsPencil) {
  auto [b, ib] = GetParam();
  Rng rng(b * 103 + ib);
  Matrix a1 = random_gaussian(b, b, rng);
  Matrix a2_0 = random_gaussian(b, b, rng);
  Matrix r1_0 = upper_of(a1.view());
  Matrix a2 = a2_0;
  Matrix t(b, b);
  TileWorkspace ws(b);
  tsqrt_ib(a1.view(), a2.view(), t.view(), ib, ws);

  Matrix q = dense_q_pencil_ib(a2.view(), t.view(), ib, /*triangular=*/false);
  EXPECT_LT(orthogonality_error(q.view()), kTol);
  Matrix p(2 * b, b);
  copy(r1_0.view(), p.block(0, 0, b, b));
  copy(a2_0.view(), p.block(b, 0, b, b));
  Matrix qtp(2 * b, b);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), p.view(), 0.0, qtp.view());
  Matrix r_new = upper_of(a1.view());
  EXPECT_LT(max_abs_diff(qtp.block(0, 0, b, b), ConstMatrixView(r_new.view())),
            kTol);
  EXPECT_LT(max_norm(qtp.block(b, 0, b, b)), kTol);
}

TEST_P(IbSizes, TsmqrIbMatchesDenseAndRoundTrips) {
  auto [b, ib] = GetParam();
  Rng rng(b * 104 + ib);
  Matrix a1 = random_gaussian(b, b, rng);
  Matrix a2 = random_gaussian(b, b, rng);
  Matrix t(b, b);
  TileWorkspace ws(b);
  tsqrt_ib(a1.view(), a2.view(), t.view(), ib, ws);
  Matrix q = dense_q_pencil_ib(a2.view(), t.view(), ib, false);

  Matrix c1_0 = random_gaussian(b, b, rng);
  Matrix c2_0 = random_gaussian(b, b, rng);
  Matrix c1 = c1_0, c2 = c2_0;
  tsmqr_ib(c1.view(), c2.view(), a2.view(), t.view(), ib, Trans::Yes, ws);
  Matrix cc(2 * b, b);
  copy(c1_0.view(), cc.block(0, 0, b, b));
  copy(c2_0.view(), cc.block(b, 0, b, b));
  Matrix expect(2 * b, b);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), cc.view(), 0.0, expect.view());
  EXPECT_LT(max_abs_diff(c1.view(), expect.block(0, 0, b, b)), kTol);
  EXPECT_LT(max_abs_diff(c2.view(), expect.block(b, 0, b, b)), kTol);

  tsmqr_ib(c1.view(), c2.view(), a2.view(), t.view(), ib, Trans::No, ws);
  EXPECT_LT(max_abs_diff(c1.view(), c1_0.view()), kTol);
  EXPECT_LT(max_abs_diff(c2.view(), c2_0.view()), kTol);
}

TEST_P(IbSizes, TtqrtIbFactorsTrianglePair) {
  auto [b, ib] = GetParam();
  Rng rng(b * 105 + ib);
  Matrix a1 = random_gaussian(b, b, rng);
  Matrix a2 = random_gaussian(b, b, rng);
  Matrix r1_0 = upper_of(a1.view());
  Matrix r2_0 = upper_of(a2.view());
  Matrix low1 = a1, low2 = a2;
  Matrix t(b, b);
  TileWorkspace ws(b);
  ttqrt_ib(a1.view(), a2.view(), t.view(), ib, ws);

  // Strict lower parts untouched.
  for (int j = 0; j < b; ++j)
    for (int i = j + 1; i < b; ++i) {
      EXPECT_EQ(a1(i, j), low1(i, j));
      EXPECT_EQ(a2(i, j), low2(i, j));
    }

  Matrix q = dense_q_pencil_ib(a2.view(), t.view(), ib, /*triangular=*/true);
  EXPECT_LT(orthogonality_error(q.view()), kTol);
  Matrix p(2 * b, b);
  copy(r1_0.view(), p.block(0, 0, b, b));
  copy(r2_0.view(), p.block(b, 0, b, b));
  Matrix qtp(2 * b, b);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), p.view(), 0.0, qtp.view());
  Matrix r_new = upper_of(a1.view());
  EXPECT_LT(max_abs_diff(qtp.block(0, 0, b, b), ConstMatrixView(r_new.view())),
            kTol);
  EXPECT_LT(max_norm(qtp.block(b, 0, b, b)), kTol);
}

TEST_P(IbSizes, TtmqrIbMatchesDenseAndRoundTrips) {
  auto [b, ib] = GetParam();
  Rng rng(b * 106 + ib);
  Matrix a1 = random_gaussian(b, b, rng);
  Matrix a2 = random_gaussian(b, b, rng);
  // Garbage below a2's diagonal must never be read.
  for (int j = 0; j < b; ++j)
    for (int i = j + 1; i < b; ++i) a2(i, j) = 1e30;
  Matrix t(b, b);
  TileWorkspace ws(b);
  ttqrt_ib(a1.view(), a2.view(), t.view(), ib, ws);
  Matrix q = dense_q_pencil_ib(a2.view(), t.view(), ib, true);

  Matrix c1_0 = random_gaussian(b, b, rng);
  Matrix c2_0 = random_gaussian(b, b, rng);
  Matrix c1 = c1_0, c2 = c2_0;
  ttmqr_ib(c1.view(), c2.view(), a2.view(), t.view(), ib, Trans::Yes, ws);
  Matrix cc(2 * b, b);
  copy(c1_0.view(), cc.block(0, 0, b, b));
  copy(c2_0.view(), cc.block(b, 0, b, b));
  Matrix expect(2 * b, b);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), cc.view(), 0.0, expect.view());
  EXPECT_LT(max_abs_diff(c1.view(), expect.block(0, 0, b, b)), kTol);
  EXPECT_LT(max_abs_diff(c2.view(), expect.block(b, 0, b, b)), kTol);

  ttmqr_ib(c1.view(), c2.view(), a2.view(), t.view(), ib, Trans::No, ws);
  EXPECT_LT(max_abs_diff(c1.view(), c1_0.view()), kTol);
  EXPECT_LT(max_abs_diff(c2.view(), c2_0.view()), kTol);
}

INSTANTIATE_TEST_SUITE_P(
    SizeCombos, IbSizes,
    ::testing::Values(std::pair{4, 1}, std::pair{4, 2}, std::pair{4, 4},
                      std::pair{6, 2}, std::pair{6, 3}, std::pair{8, 3},
                      std::pair{8, 4}, std::pair{13, 4}, std::pair{16, 4},
                      std::pair{16, 16}, std::pair{5, 5}, std::pair{7, 2}));

TEST(IbKernels, BadIbThrows) {
  TileWorkspace ws(4);
  Matrix a(4, 4), t(4, 4);
  EXPECT_THROW(geqrt_ib(a.view(), t.view(), 0, ws), Error);
  EXPECT_THROW(geqrt_ib(a.view(), t.view(), 5, ws), Error);
  // T needs at least ib rows and exactly b columns.
  Matrix short_t(1, 4), narrow_t(4, 3);
  EXPECT_THROW(geqrt_ib(a.view(), short_t.view(), 2, ws), Error);
  EXPECT_THROW(geqrt_ib(a.view(), narrow_t.view(), 2, ws), Error);
  EXPECT_THROW(unmqr_ib(a.view(), short_t.view(), 2, Trans::Yes, a.view(), ws),
               Error);
}

TEST(IbKernels, DefaultIbIsOnePanelUpTo32) {
  EXPECT_EQ(default_ib(1), 1);
  EXPECT_EQ(default_ib(8), 8);
  EXPECT_EQ(default_ib(32), 32);
  EXPECT_EQ(default_ib(33), 32);
  EXPECT_EQ(default_ib(200), 32);
}

TEST(IbKernels, TsChainWithIbMatchesReference) {
  const int b = 6, ib = 2;
  Rng rng(9);
  Matrix t0 = random_gaussian(b, b, rng);
  Matrix t1 = random_gaussian(b, b, rng);
  Matrix stacked(2 * b, b);
  copy(t0.view(), stacked.block(0, 0, b, b));
  copy(t1.view(), stacked.block(b, 0, b, b));
  TileWorkspace ws(b);
  Matrix tg(b, b), tt(b, b);
  geqrt_ib(t0.view(), tg.view(), ib, ws);
  tsqrt_ib(t0.view(), t1.view(), tt.view(), ib, ws);
  RefQR ref = ref_qr_unblocked(stacked);
  for (int j = 0; j < b; ++j)
    for (int i = 0; i <= j; ++i)
      EXPECT_NEAR(std::abs(t0(i, j)), std::abs(ref.a(i, j)), 1e-11);
}

}  // namespace
}  // namespace hqr
