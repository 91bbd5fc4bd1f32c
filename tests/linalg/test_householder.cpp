#include "linalg/householder.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

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

// Inputs on both sides of larfg's fast range (householder.hpp): 2^-991 <=
// ss <= 2^1000 and |alpha| <= 2^500, with ss the tail's sum of squares.
// Entries of 1e-300 and 1e-160 put ss below it (ss underflows to zero or
// lands among the subnormals), 1 and 1e150 inside, 1e200 above (ss
// overflows); alpha = 0 over a unit tail and a large alpha over a small
// tail sit inside, alpha = 1e200 above. Every output must match a
// long-double reflector to a few ulps.
TEST(Larfg, MatchesLongDoubleOnBothSidesOfFastRange) {
  struct Case {
    double alpha;
    std::vector<double> tail;
  };
  std::vector<Case> cases;
  for (double s : {1e-300, 1e-160, 1.0, 1e150, 1e200})
    cases.push_back({0.7 * s, {0.3 * s, -1.1 * s, 0.5 * s, 2.0 * s}});
  cases.push_back({0.0, {0.6, -0.8, 0.25}});
  cases.push_back({-3.0, {0.0, 0.0, 4.0}});
  cases.push_back({1e100, {1e-100, -2e-100, 3e-100}});
  cases.push_back({1e200, {1e-5, 2e-5}});
  for (const Case& c : cases) {
    const int n = static_cast<int>(c.tail.size()) + 1;
    long double ss = static_cast<long double>(c.alpha) * c.alpha;
    for (double x : c.tail) ss += static_cast<long double>(x) * x;
    const long double beta_ref =
        c.alpha < 0 ? std::sqrt(ss) : -std::sqrt(ss);  // -copysign
    const long double tau_ref = (beta_ref - c.alpha) / beta_ref;
    const long double scale_ref = 1.0L / (c.alpha - beta_ref);

    Matrix x(n - 1, 1);
    for (int i = 0; i < n - 1; ++i) x(i, 0) = c.tail[i];
    double alpha = c.alpha;
    const double tau = larfg(n, alpha, x.view());
    const auto rel = [](double got, long double want) {
      return static_cast<double>(std::abs((got - want) / want));
    };
    EXPECT_LE(rel(tau, tau_ref), 4e-16) << "alpha=" << c.alpha;
    EXPECT_LE(rel(alpha, beta_ref), 4e-16) << "alpha=" << c.alpha;
    for (int i = 0; i < n - 1; ++i) {
      const long double v_ref = c.tail[i] * scale_ref;
      if (v_ref == 0.0L) {
        EXPECT_EQ(x(i, 0), 0.0) << "alpha=" << c.alpha << " i=" << i;
      } else {
        EXPECT_LE(rel(x(i, 0), v_ref), 8e-16) << "alpha=" << c.alpha
                                              << " i=" << i;
      }
    }
  }
}

// Non-finite inputs take the dlarfg path and keep its outputs: a NaN in
// alpha or the tail gives NaN tau, beta and tail; a +-Inf gives NaN tau,
// beta = -copysign(Inf, alpha), NaN in the Inf's place and zeros elsewhere
// in the tail.
TEST(Larfg, NonFiniteInputsPropagate) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto run = [](double alpha, std::vector<double> tail, double* beta) {
    Matrix x(static_cast<int>(tail.size()), 1);
    for (std::size_t i = 0; i < tail.size(); ++i)
      x(static_cast<int>(i), 0) = tail[i];
    *beta = alpha;
    const double tau =
        larfg(static_cast<int>(tail.size()) + 1, *beta, x.view());
    return std::pair{tau, x};
  };
  double beta = 0.0;
  for (const auto& [alpha, tail] :
       {std::pair{nan, std::vector<double>{0.5, -1.0}},
        std::pair{0.5, std::vector<double>{nan, -1.0}},
        std::pair{0.5, std::vector<double>{-1.0, nan}}}) {
    const auto [tau, x] = run(alpha, tail, &beta);
    EXPECT_TRUE(std::isnan(tau));
    EXPECT_TRUE(std::isnan(beta));
    for (int i = 0; i < x.rows(); ++i) EXPECT_TRUE(std::isnan(x(i, 0)));
  }
  for (double a : {0.5, -0.5}) {
    for (double s : {inf, -inf}) {
      const auto [tau, x] = run(a, {1.0, s, -2.0}, &beta);
      EXPECT_TRUE(std::isnan(tau));
      EXPECT_EQ(beta, -std::copysign(inf, a));
      EXPECT_EQ(x(0, 0), 0.0);
      EXPECT_TRUE(std::isnan(x(1, 0)));
      EXPECT_EQ(x(2, 0), 0.0);
    }
  }
  for (double a : {inf, -inf}) {
    const auto [tau, x] = run(a, {1.0, -2.0}, &beta);
    EXPECT_TRUE(std::isnan(tau));
    EXPECT_EQ(beta, -a);
    EXPECT_EQ(x(0, 0), 0.0);
    EXPECT_EQ(x(1, 0), 0.0);
  }
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
  larf_left(tau, vtail.view(), c.view());
  EXPECT_GT(max_abs_diff(c.view(), c0.view()), 0.1);  // actually moved
  larf_left(tau, vtail.view(), c.view());
  EXPECT_LT(max_abs_diff(c.view(), c0.view()), 1e-13);
}

TEST(LarfLeft, TauZeroIsNoOp) {
  Rng rng(22);
  Matrix c0 = random_uniform(4, 3, rng);
  Matrix c = c0;
  Matrix vtail = random_uniform(3, 1, rng);
  larf_left(0.0, vtail.view(), c.view());
  EXPECT_EQ(max_abs_diff(c.view(), c0.view()), 0.0);
}

// Builds V unit-lower-trapezoidal, its taus and T from an actual
// factorization step: factors `panel` column by column.
std::vector<double> factor_panel(Matrix& panel, Matrix& t) {
  const int m = panel.rows(), k = panel.cols();
  std::vector<double> tau(k);
  for (int j = 0; j < k; ++j) {
    double alpha = panel(j, j);
    MatrixView x = panel.block(j + 1, j, m - j - 1, 1);
    tau[j] = larfg(m - j, alpha, x);
    panel(j, j) = alpha;
    if (j + 1 < k) {
      MatrixView c = panel.block(j, j + 1, m - j, k - j - 1);
      larf_left(tau[j], x, c);
    }
  }
  for (int j = 0; j < k; ++j) t(j, j) = tau[j];
  larft(panel.view(), t.view());
  return tau;
}

// larft + larfb must equal the product of individual reflectors.
TEST(LarftLarfb, BlockReflectorMatchesSequentialReflectors) {
  Rng rng(33);
  const int m = 8, k = 4, n = 5;
  Matrix panel = random_gaussian(m, k, rng);
  Matrix t(k, k);
  const std::vector<double> tau = factor_panel(panel, t);

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
    larf_left(tau[j], x, cc);
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
    for (int s = 0; s < k; ++s) {
      const int j = trans == Trans::Yes ? s : k - 1 - s;
      MatrixView x = panel.block(j + 1, j, m - j - 1, 1);
      larf_left(tau[j], x, c_seq.block(j, 0, m - j, n));
    }
    EXPECT_LT(max_abs_diff(c.view(), c_seq.view()), 1e-12);
  }
}

}  // namespace
}  // namespace hqr
