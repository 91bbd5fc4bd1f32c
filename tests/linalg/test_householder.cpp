#include "linalg/householder.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"

namespace hqr {
namespace {

TEST(Larfg, ZeroesTailAndPreservesNorm) {
  Rng rng(1);
  const int n = 7;
  Matrix v(n, 1);
  for (int i = 0; i < n; ++i) v(i, 0) = rng.uniform(-1, 1);
  const double norm0 = nrm2(v.view());
  double alpha = v(0, 0);
  Matrix tail = materialize(v.block(1, 0, n - 1, 1));
  const double tau = larfg(n, alpha, tail.view());

  // Apply H = I - tau w w^T (w = [1; tail]) to the original vector: must give
  // [alpha; 0] with |alpha| == ||v||.
  double wv = v(0, 0);
  for (int i = 1; i < n; ++i) wv += tail(i - 1, 0) * v(i, 0);
  Matrix h(n, 1);
  h(0, 0) = v(0, 0) - tau * wv;
  for (int i = 1; i < n; ++i) h(i, 0) = v(i, 0) - tau * wv * tail(i - 1, 0);

  EXPECT_NEAR(std::abs(alpha), norm0, 1e-14);
  EXPECT_NEAR(h(0, 0), alpha, 1e-14);
  for (int i = 1; i < n; ++i) EXPECT_NEAR(h(i, 0), 0.0, 1e-14);
}

TEST(Larfg, TauZeroWhenTailAlreadyZero) {
  Matrix tail(3, 1);
  double alpha = 2.5;
  const double tau = larfg(4, alpha, tail.view());
  EXPECT_EQ(tau, 0.0);
  EXPECT_EQ(alpha, 2.5);
}

TEST(Larfg, HandlesAllZeroVector) {
  Matrix tail(3, 1);
  double alpha = 0.0;
  const double tau = larfg(4, alpha, tail.view());
  EXPECT_EQ(tau, 0.0);
}

TEST(Larfg, ReflectorIsInvolutoryOnItself) {
  // tau satisfies 1 <= tau <= 2 for real reflectors.
  Rng rng(9);
  Matrix v(5, 1);
  for (int i = 0; i < 5; ++i) v(i, 0) = rng.gaussian();
  double alpha = v(0, 0);
  Matrix tail = materialize(v.block(1, 0, 4, 1));
  const double tau = larfg(5, alpha, tail.view());
  EXPECT_GE(tau, 0.0);
  EXPECT_LE(tau, 2.0 + 1e-12);
}

TEST(Larfg, TinyValuesRescaledSafely) {
  Matrix tail(2, 1);
  tail(0, 0) = 1e-300;
  tail(1, 0) = 1e-300;
  double alpha = 1e-300;
  const double tau = larfg(3, alpha, tail.view());
  EXPECT_TRUE(std::isfinite(tau));
  EXPECT_TRUE(std::isfinite(alpha));
  EXPECT_TRUE(std::isfinite(tail(0, 0)));
  EXPECT_NEAR(std::abs(alpha) / (std::sqrt(3.0) * 1e-300), 1.0, 1e-10);
}

// Applying H twice must restore the original matrix (H is an involution).
TEST(LarfLeft, InvolutionOnRandomMatrix) {
  Rng rng(21);
  const int m = 6, n = 4;
  Matrix c0 = random_uniform(m, n, rng);
  Matrix c = c0;
  Matrix vtail(m - 1, 1);
  for (int i = 0; i < m - 1; ++i) vtail(i, 0) = rng.gaussian();
  // A valid tau for v = [1; vtail] must satisfy tau (2 - tau ||v||^2) ... use
  // the canonical tau = 2 / ||v||^2 which makes H orthogonal.
  double vv = 1.0;
  for (int i = 0; i < m - 1; ++i) vv += vtail(i, 0) * vtail(i, 0);
  const double tau = 2.0 / vv;
  Matrix work(n, 1);
  larf_left(tau, vtail.view(), c.view(), work.view());
  EXPECT_GT(max_abs_diff(c.view(), c0.view()), 0.1);  // actually moved
  larf_left(tau, vtail.view(), c.view(), work.view());
  EXPECT_LT(max_abs_diff(c.view(), c0.view()), 1e-13);
}

TEST(LarfLeft, TauZeroIsNoOp) {
  Rng rng(22);
  Matrix c0 = random_uniform(4, 3, rng);
  Matrix c = c0;
  Matrix vtail = random_uniform(3, 1, rng);
  Matrix work(3, 1);
  larf_left(0.0, vtail.view(), c.view(), work.view());
  EXPECT_EQ(max_abs_diff(c.view(), c0.view()), 0.0);
}

// Builds V unit-lower-trapezoidal, its taus and T from an actual
// factorization step: factors `panel` column by column.
std::vector<double> factor_panel(Matrix& panel, Matrix& t) {
  const int m = panel.rows(), k = panel.cols();
  Matrix work(k, 1);
  std::vector<double> tau(k);
  for (int j = 0; j < k; ++j) {
    double alpha = panel(j, j);
    MatrixView x = panel.block(j + 1, j, m - j - 1, 1);
    tau[j] = larfg(m - j, alpha, x);
    panel(j, j) = alpha;
    if (j + 1 < k) {
      MatrixView c = panel.block(j, j + 1, m - j, k - j - 1);
      larf_left(tau[j], x, c, work.view());
    }
  }
  for (int j = 0; j < k; ++j) larft_column(panel.view(), j, tau[j], t.view());
  return tau;
}

// larft + larfb must equal the product of individual reflectors.
TEST(LarftLarfb, BlockReflectorMatchesSequentialReflectors) {
  Rng rng(33);
  const int m = 8, k = 4, n = 5;
  Matrix panel = random_gaussian(m, k, rng);
  Matrix t(k, k);
  const std::vector<double> tau = factor_panel(panel, t);
  Matrix work(std::max(k, n), 1);

  // Apply Q^T via larfb to a random C.
  Matrix c0 = random_gaussian(m, n, rng);
  Matrix c_blocked = c0;
  larfb_left(Trans::Yes, panel.view(), t.view(), c_blocked.view());

  // Apply H_{k-1}...H_0? Q = H_0 H_1 ... H_{k-1}; Q^T C = H_{k-1}^T ... H_0^T C
  // = H_{k-1} ... H_0 C applied in increasing j order.
  Matrix c_seq = c0;
  for (int j = 0; j < k; ++j) {
    MatrixView x = panel.block(j + 1, j, m - j - 1, 1);
    MatrixView cc = c_seq.block(j, 0, m - j, n);
    larf_left(tau[j], x, cc, work.view());
  }
  EXPECT_LT(max_abs_diff(c_blocked.view(), c_seq.view()), 1e-13);
}

TEST(LarftLarfb, QFollowedByQTransposeIsIdentity) {
  Rng rng(35);
  const int m = 7, k = 3, n = 4;
  Matrix panel = random_gaussian(m, k, rng);
  Matrix t(k, k);
  factor_panel(panel, t);

  Matrix c0 = random_gaussian(m, n, rng);
  Matrix c = c0;
  larfb_left(Trans::Yes, panel.view(), t.view(), c.view());
  larfb_left(Trans::No, panel.view(), t.view(), c.view());
  EXPECT_LT(max_abs_diff(c.view(), c0.view()), 1e-13);
}

// At ib = 32 the T multiply takes trmm_left's dense path. The scratch-taking
// form with scratch of exactly larfb_scratch_doubles entries (ASan sees any
// access past it) gives the convenience form's bits, and V's upper triangle
// and diagonal, NaN here, are never read.
TEST(LarftLarfb, DensePathWithExactScratchMatchesReflectors) {
  Rng rng(37);
  const int m = 80, k = 32, n = 40;
  Matrix panel = random_gaussian(m, k, rng);
  Matrix t(k, k);
  const std::vector<double> tau = factor_panel(panel, t);
  Matrix v = panel;
  for (int j = 0; j < k; ++j)
    for (int i = 0; i <= j; ++i) v(i, j) = std::nan("");

  const Matrix c0 = random_gaussian(m, n, rng);
  for (Trans trans : {Trans::Yes, Trans::No}) {
    Matrix c = c0, c_conv = c0;
    std::vector<double> scratch(larfb_scratch_doubles(m, k, n));
    GemmWorkspace ws;
    larfb_left(trans, v.view(), t.view(), c.view(), scratch, ws);
    larfb_left(trans, v.view(), t.view(), c_conv.view());
    EXPECT_EQ(c.storage(), c_conv.storage());

    // Q^T = H_{k-1} ... H_0 applies reflectors in increasing j, Q in
    // decreasing j.
    Matrix c_seq = c0;
    Matrix work(n, 1);
    for (int s = 0; s < k; ++s) {
      const int j = trans == Trans::Yes ? s : k - 1 - s;
      MatrixView x = panel.block(j + 1, j, m - j - 1, 1);
      larf_left(tau[j], x, c_seq.block(j, 0, m - j, n), work.view());
    }
    EXPECT_LT(max_abs_diff(c.view(), c_seq.view()), 1e-12);
  }
}

}  // namespace
}  // namespace hqr
