#include "linalg/blas.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "linalg/random_matrix.hpp"

namespace hqr {
namespace {

// Naive reference product for validation.
Matrix ref_mul(Trans ta, Trans tb, const Matrix& a, const Matrix& b) {
  const int m = ta == Trans::No ? a.rows() : a.cols();
  const int k = ta == Trans::No ? a.cols() : a.rows();
  const int n = tb == Trans::No ? b.cols() : b.rows();
  Matrix c(m, n);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      double s = 0;
      for (int l = 0; l < k; ++l) {
        const double av = ta == Trans::No ? a(i, l) : a(l, i);
        const double bv = tb == Trans::No ? b(l, j) : b(j, l);
        s += av * bv;
      }
      c(i, j) = s;
    }
  return c;
}

class GemmTransCase : public ::testing::TestWithParam<std::pair<Trans, Trans>> {};

TEST_P(GemmTransCase, MatchesNaiveProduct) {
  auto [ta, tb] = GetParam();
  Rng rng(17);
  const int m = 5, k = 4, n = 6;
  Matrix a = ta == Trans::No ? random_uniform(m, k, rng)
                             : random_uniform(k, m, rng);
  Matrix b = tb == Trans::No ? random_uniform(k, n, rng)
                             : random_uniform(n, k, rng);
  Matrix c(m, n);
  gemm(ta, tb, 1.0, a.view(), b.view(), 0.0, c.view());
  Matrix expect = ref_mul(ta, tb, a, b);
  EXPECT_LT(max_abs_diff(c.view(), expect.view()), 1e-13);
}

INSTANTIATE_TEST_SUITE_P(
    AllTransCombos, GemmTransCase,
    ::testing::Values(std::pair{Trans::No, Trans::No},
                      std::pair{Trans::No, Trans::Yes},
                      std::pair{Trans::Yes, Trans::No},
                      std::pair{Trans::Yes, Trans::Yes}));

TEST(Gemm, AlphaBetaCombine) {
  Rng rng(3);
  Matrix a = random_uniform(3, 3, rng);
  Matrix b = random_uniform(3, 3, rng);
  Matrix c = random_uniform(3, 3, rng);
  Matrix c0 = c;
  gemm(Trans::No, Trans::No, 2.0, a.view(), b.view(), -1.0, c.view());
  Matrix ab = ref_mul(Trans::No, Trans::No, a, b);
  for (int j = 0; j < 3; ++j)
    for (int i = 0; i < 3; ++i)
      EXPECT_NEAR(c(i, j), 2.0 * ab(i, j) - c0(i, j), 1e-13);
}

TEST(Gemm, BetaZeroOverwritesNaNFreeOfInputGarbage) {
  Matrix a(2, 2), b(2, 2), c(2, 2);
  c(0, 0) = std::nan("");
  gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c.view());
  EXPECT_EQ(c(0, 0), 0.0);
}

TEST(Gemm, InnerDimensionMismatchThrows) {
  Matrix a(2, 3), b(2, 2), c(2, 2);
  EXPECT_THROW(gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c.view()),
               Error);
}

TEST(Gemm, StridedViews) {
  Rng rng(5);
  Matrix big = random_uniform(8, 8, rng);
  Matrix a = materialize(big.block(1, 1, 3, 3));
  Matrix b = materialize(big.block(4, 4, 3, 3));
  Matrix c1(3, 3), c2(3, 3);
  gemm(Trans::No, Trans::No, 1.0, big.block(1, 1, 3, 3), big.block(4, 4, 3, 3),
       0.0, c1.view());
  gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c2.view());
  EXPECT_LT(max_abs_diff(c1.view(), c2.view()), 1e-15);
}

// Selects a GEMM backend for one test and restores the packed default.
class BackendGuard {
 public:
  explicit BackendGuard(GemmBackend backend) { set_gemm_backend(backend); }
  ~BackendGuard() { set_gemm_backend(GemmBackend::Packed); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
};

class TrmmCase : public ::testing::TestWithParam<
                     std::tuple<UpLo, Trans, Diag, GemmBackend>> {};

// Every path of trmm_left: the shapes straddle GEMM's packing threshold
// (k = 6 and 8 never pack; k = 130 packs from 7 columns on, k = 32 and 33
// from 40, k = 64 and 65 from 8), under both backends, through the
// scratch-taking form (scratch sized exactly, so ASan sees a read or write
// past it). On the column loops, 8 and 9 columns are one eight-lane block
// and one block plus a single column; k = 65 and 130 exceed the 64 rows
// the block stages, so they run a column at a time. The unreferenced
// triangle, and the diagonal under Diag::Unit, hold NaN: a dense copy of
// the whole square would carry it into B.
TEST_P(TrmmCase, MatchesDenseProduct) {
  auto [uplo, ta, diag, backend] = GetParam();
  BackendGuard guard(backend);
  Rng rng(23);
  for (int n : {6, 8, 32, 33, 64, 65, 130}) {
    for (int nc : {1, 7, 8, 9, 40, 200}) {
      Matrix a = random_uniform(n, n, rng);
      Matrix tri(n, n);
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i) {
          const bool keep = uplo == UpLo::Upper ? i <= j : i >= j;
          if (diag == Diag::Unit && i == j) {
            tri(i, j) = 1.0;
            a(i, j) = std::nan("");
          } else if (keep) {
            tri(i, j) = a(i, j);
          } else {
            a(i, j) = std::nan("");
          }
        }
      const Matrix b = random_uniform(n, nc, rng);
      const Matrix expect = ref_mul(ta, Trans::No, tri, b);
      double scale = 0.0;
      for (double v : expect.storage()) scale = std::max(scale, std::abs(v));

      Matrix got = b;
      std::vector<double> scratch(trmm_scratch_doubles(n, nc));
      GemmWorkspace ws;
      trmm_left(uplo, ta, diag, a.view(), got.view(), scratch, ws);
      const double err = max_abs_diff(got.view(), expect.view());
      EXPECT_LE(err, 1e-13 * scale) << "k=" << n << " n=" << nc;
      EXPECT_FALSE(std::isnan(err)) << "NaN reached B at k=" << n
                                    << " n=" << nc;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TrmmCase,
    ::testing::Combine(::testing::Values(UpLo::Upper, UpLo::Lower),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Diag::NonUnit, Diag::Unit),
                       ::testing::Values(GemmBackend::Packed,
                                         GemmBackend::Naive)));

TEST(Trmm, DensePathRejectsShortScratch) {
  Rng rng(29);
  Matrix a = random_uniform(32, 32, rng);
  Matrix b = random_uniform(32, 40, rng);
  std::vector<double> scratch(trmm_scratch_doubles(32, 40) - 1);
  GemmWorkspace ws;
  EXPECT_THROW(trmm_left(UpLo::Upper, Trans::No, Diag::NonUnit, a.view(),
                         b.view(), scratch, ws),
               Error);
}

class TrsmCase
    : public ::testing::TestWithParam<std::tuple<UpLo, Trans, Diag>> {};

TEST_P(TrsmCase, InvertsTrmm) {
  auto [uplo, ta, diag] = GetParam();
  Rng rng(31);
  const int n = 6, nc = 3;
  Matrix a = random_uniform(n, n, rng);
  for (int i = 0; i < n; ++i) a(i, i) += 4.0;  // well-conditioned
  Matrix b = random_uniform(n, nc, rng);
  Matrix x = b;
  trsm_left(uplo, ta, diag, a.view(), x.view());
  std::vector<double> scratch(trmm_scratch_doubles(n, nc));
  GemmWorkspace ws;
  trmm_left(uplo, ta, diag, a.view(), x.view(), scratch, ws);
  EXPECT_LT(max_abs_diff(x.view(), b.view()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TrsmCase,
    ::testing::Combine(::testing::Values(UpLo::Upper, UpLo::Lower),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Diag::NonUnit, Diag::Unit)));

// Long-double references: x86-64's 80-bit format has 11 more mantissa bits
// than double and a wide enough exponent for 1e+-300 squared and for
// squared subnormals.
long double dot_ref(const std::vector<double>& x,
                    const std::vector<double>& y) {
  long double s = 0.0L;
  for (std::size_t i = 0; i < x.size(); ++i)
    s += static_cast<long double>(x[i]) * y[i];
  return s;
}

constexpr double kEps = std::numeric_limits<double>::epsilon();

// The fixed-order dot against the reference: |error| <= n eps sum|x_i y_i|,
// the usual summation bound (relative to the result itself when no terms
// cancel). n = 0..9 covers empty, tail-only, one full group, and a group
// plus tail.
TEST(Dot, FixedOrderMatchesLongDoubleReference) {
  Rng rng(43);
  for (int n : {0, 1, 7, 8, 9, 200}) {
    std::vector<double> x(n), y(n);
    for (int i = 0; i < n; ++i) {
      x[i] = rng.gaussian();
      y[i] = rng.gaussian();
    }
    long double abs_sum = 0.0L;
    for (int i = 0; i < n; ++i)
      abs_sum += std::abs(static_cast<long double>(x[i]) * y[i]);
    const long double err =
        std::abs(dot(n, x.data(), y.data()) - dot_ref(x, y));
    EXPECT_LE(err, n * kEps * abs_sum) << "n=" << n;
  }
}

// The summation order depends only on n: the same values at other
// alignments, where a vectorizer could peel a different prefix, give the
// same bits.
TEST(Dot, FixedOrderIsIndependentOfAlignment) {
  Rng rng(47);
  std::vector<double> buf(260);
  for (double& v : buf) v = rng.gaussian();
  for (int n : {5, 8, 13, 200}) {
    std::vector<double> x(buf.begin(), buf.begin() + n);
    std::vector<double> y(buf.begin() + 50, buf.begin() + 50 + n);
    const double want = dot(n, x.data(), y.data());
    for (int off = 1; off < 8; ++off) {
      std::vector<double> xs(off + n), ys(off + n);
      std::copy(x.begin(), x.end(), xs.begin() + off);
      std::copy(y.begin(), y.end(), ys.begin() + off);
      EXPECT_EQ(dot(n, xs.data() + off, ys.data() + off), want)
          << "n=" << n << " offset=" << off;
    }
  }
}

struct Nrm2Case {
  const char* name;
  std::vector<double> x;
  bool fast;  // whether the sum of squares lands in the fast-path range
};

std::vector<double> filled(int n, double v) {
  return std::vector<double>(n, v);
}

// n entries of alternating sign: every third of magnitude in [big/2, big],
// the others in [small/2, small].
std::vector<double> scaled(int n, Rng& rng, double big, double small) {
  std::vector<double> x(n);
  for (int i = 0; i < n; ++i)
    x[i] = (i % 3 == 0 ? big : small) * rng.uniform(0.5, 1.0) *
           (i % 2 ? -1.0 : 1.0);
  return x;
}

// nrm2 against sqrt of the long-double sum of squares, within n eps, on
// vectors that reach each side of the fast path's range
// [2^-991, DBL_MAX]: the `fast` flag states which side each one reaches,
// and the test checks that the sum of squares really lands there. A
// subnormal norm cannot be closer than half the subnormal spacing, so the
// tolerance adds that.
TEST(Nrm2, MatchesLongDoubleReferenceOnBothPaths) {
  Rng rng(53);
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  const std::vector<Nrm2Case> cases = {
      {"unit", scaled(200, rng, 1.0, 1.0), true},
      {"1e+140", scaled(200, rng, 1e140, 1e140), true},
      {"1e-140", scaled(200, rng, 1e-140, 1e-140), true},
      {"1e+160", scaled(200, rng, 1e160, 1e160), false},
      {"1e-160", scaled(200, rng, 1e-160, 1e-160), false},
      {"1e+300", scaled(7, rng, 1e300, 1e300), false},
      {"1e-300", scaled(9, rng, 1e-300, 1e-300), false},
      {"subnormal", {3 * kSub, -4 * kSub, kSub, 0.0, 1e5 * kSub}, false},
      {"zeros", filled(8, 0.0), false},
      {"zero-length", {}, false},
      {"mixed 1 and 1e-200", scaled(33, rng, 1.0, 1e-200), true},
      {"mixed 1e+200 and 1", scaled(33, rng, 1e200, 1.0), false},
      {"mixed 1e-150 and 1e-300", scaled(33, rng, 1e-150, 1e-300), false},
      {"single huge", {0.0, 0.0, 1.5e308, 0.0}, false},
  };
  for (const Nrm2Case& c : cases) {
    const int n = static_cast<int>(c.x.size());
    const double ss = dot(n, c.x.data(), c.x.data());
    EXPECT_EQ(ss >= 0x1p-991 && ss <= std::numeric_limits<double>::max(),
              c.fast)
        << c.name;
    long double ref = 0.0L;
    for (double v : c.x) ref += static_cast<long double>(v) * v;
    ref = std::sqrt(ref);
    Matrix x(n, 1);
    for (int i = 0; i < n; ++i) x(i, 0) = c.x[i];
    const double got = nrm2(x.view());
    EXPECT_LE(std::abs(got - ref), std::max(n, 1) * kEps * ref + 0.5L * kSub)
        << c.name;
  }
}

TEST(Nrm2, NonFiniteEntriesPropagate) {
  for (int pos : {0, 3, 9}) {
    Matrix x(10, 1);
    for (int i = 0; i < 10; ++i) x(i, 0) = 0.5 + i;
    x(pos, 0) = std::nan("");
    EXPECT_TRUE(std::isnan(nrm2(x.view()))) << "NaN at " << pos;
    for (double inf : {HUGE_VAL, -HUGE_VAL}) {
      x(pos, 0) = inf;
      EXPECT_EQ(nrm2(x.view()), HUGE_VAL) << inf << " at " << pos;
    }
  }
}

TEST(Nrm2, MatchesDefinition) {
  Matrix x(3, 1);
  x(0, 0) = 3;
  x(1, 0) = 4;
  x(2, 0) = 0;
  EXPECT_DOUBLE_EQ(nrm2(x.view()), 5.0);
}

TEST(Nrm2, OverflowSafe) {
  Matrix x(2, 1);
  x(0, 0) = 1e200;
  x(1, 0) = 1e200;
  EXPECT_NEAR(nrm2(x.view()) / (std::sqrt(2.0) * 1e200), 1.0, 1e-14);
}

TEST(Nrm2, ZeroVector) {
  Matrix x(4, 1);
  EXPECT_EQ(nrm2(x.view()), 0.0);
}

TEST(Dot, MatchesDefinition) {
  Matrix x(2, 1), y(2, 1);
  x(0, 0) = 2;
  x(1, 0) = -1;
  y(0, 0) = 3;
  y(1, 0) = 5;
  EXPECT_DOUBLE_EQ(dot(x.view(), y.view()), 1.0);
}

TEST(Scal, ScalesInPlace) {
  Matrix x(2, 1);
  x(0, 0) = 2;
  x(1, 0) = -4;
  scal(0.5, x.view());
  EXPECT_DOUBLE_EQ(x(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(x(1, 0), -2.0);
}

}  // namespace
}  // namespace hqr
