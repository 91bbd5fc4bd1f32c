// Differential tests of the cache-blocked GEMM core against the retained
// naive reference, sweeping every structural regime of the packed path:
// empty/degenerate shapes, micro-tile fringes, cache-block boundaries
// (with blocking shrunk so multi-block loops actually run), all four
// transpose combinations, the specialized beta in {0, 1} paths, and the
// small-problem direct path (its 8-row vector blocks and fringes on
// strided views included).
#include "linalg/gemm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "linalg/random_matrix.hpp"

namespace hqr {
namespace {

// Restores process-wide GEMM knobs so test order never matters.
class GemmCore : public ::testing::Test {
 protected:
  void TearDown() override {
    set_gemm_blocking(GemmBlocking{});
    set_gemm_backend(GemmBackend::Packed);
  }
};

// op(X) is (rows x cols): allocate the storage shape that produces it.
Matrix random_operand(Trans t, int rows, int cols, Rng& rng) {
  return t == Trans::No ? random_gaussian(rows, cols, rng)
                        : random_gaussian(cols, rows, rng);
}

// Packed and naive accumulate in different orders, so they agree to
// rounding, not bitwise: ~k fused updates of O(1) gaussian entries.
double tol(int k) { return 1e-14 * static_cast<double>(k + 1) + 1e-14; }

void expect_matches_naive(Trans ta, Trans tb, double alpha, double beta,
                          int m, int n, int k, Rng& rng) {
  Matrix a = random_operand(ta, m, k, rng);
  Matrix b = random_operand(tb, k, n, rng);
  Matrix c0 = random_gaussian(m, n, rng);
  Matrix c_packed = c0;
  Matrix c_naive = c0;
  GemmWorkspace ws;
  gemm(ta, tb, alpha, a.view(), b.view(), beta, c_packed.view(), ws);
  gemm_naive(ta, tb, alpha, a.view(), b.view(), beta, c_naive.view());
  EXPECT_LE(max_abs_diff(c_packed.view(), c_naive.view()), tol(k))
      << "m=" << m << " n=" << n << " k=" << k << " ta=" << (ta == Trans::Yes)
      << " tb=" << (tb == Trans::Yes) << " alpha=" << alpha
      << " beta=" << beta;
}

TEST_F(GemmCore, ExhaustiveShapeTransScalingSweep) {
  // Shrink the blocking so the sweep crosses MC/KC/NC boundaries with
  // matrices small enough to enumerate: mc=16 (2 micro-rows), kc=12,
  // nc=18 (3 micro-cols).
  set_gemm_blocking({16, 12, 18});
  // m values straddle the kMR=8 micro-tile and the mc=16 block; n values
  // the kNR=6 micro-tile and the nc=18 slab; k values the kc=12 panel.
  const std::vector<int> ms = {0, 1, 3, 7, 8, 9, 16, 17, 33};
  const std::vector<int> ns = {0, 1, 5, 6, 7, 12, 18, 19, 37};
  const std::vector<int> ks = {0, 1, 4, 11, 12, 13, 25};
  const std::vector<std::pair<double, double>> scalings = {
      {1.0, 0.0}, {1.0, 1.0}, {-1.0, 1.0}, {0.5, -0.25}, {0.0, 0.75}};
  Rng rng(12345);
  for (Trans ta : {Trans::No, Trans::Yes})
    for (Trans tb : {Trans::No, Trans::Yes})
      for (int m : ms)
        for (int n : ns)
          for (int k : ks)
            for (auto [alpha, beta] : scalings)
              expect_matches_naive(ta, tb, alpha, beta, m, n, k, rng);
}

TEST_F(GemmCore, DefaultBlockingLargeAndStridedViews) {
  // Default (production) blocking, sizes past one full MC x KC block, and
  // every operand a strided sub-view so ld > rows throughout packing and
  // the C merge.
  Rng rng(77);
  const int m = 171, n = 83, k = 260;
  for (Trans ta : {Trans::No, Trans::Yes})
    for (Trans tb : {Trans::No, Trans::Yes}) {
      const int ar = ta == Trans::No ? m : k, ac = ta == Trans::No ? k : m;
      const int br = tb == Trans::No ? k : n, bc = tb == Trans::No ? n : k;
      Matrix abig = random_gaussian(ar + 7, ac + 3, rng);
      Matrix bbig = random_gaussian(br + 5, bc + 2, rng);
      Matrix cbig = random_gaussian(m + 9, n + 4, rng);
      Matrix cref = cbig;
      ConstMatrixView a = ConstMatrixView(abig.view()).block(3, 1, ar, ac);
      ConstMatrixView b = ConstMatrixView(bbig.view()).block(2, 2, br, bc);
      gemm(ta, tb, -0.5, a, b, 1.0, cbig.view().block(4, 3, m, n));
      gemm_naive(ta, tb, -0.5, a, b, 1.0, cref.view().block(4, 3, m, n));
      EXPECT_LE(max_abs_diff(cbig.view(), cref.view()), tol(k));
      // Rows outside the written block are untouched (exact equality).
      EXPECT_EQ(cbig(0, 0), cref(0, 0));
      EXPECT_EQ(cbig(m + 8, n + 3), cref(m + 8, n + 3));
    }
}

// The direct path on strided sub-views: every operand sits inside a larger
// matrix of NaN (ld > rows), so a load outside a view shows up as NaN in C
// and a store outside C's view overwrites a NaN. m and n straddle the
// 8-row vector block (7, 8, 9, 17); k = 300 runs past the 256-deep
// transposed block of op(A) = A^T. Only shapes that stay direct are swept.
TEST_F(GemmCore, DirectPathStridedViewsInNaN) {
  Rng rng(4242);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // A view of `rows` x `cols` Gaussian entries at (2, 1) of a NaN matrix.
  const auto embedded = [&](int rows, int cols) {
    Matrix big(rows + 5, cols + 3);
    big.fill(nan);
    copy(random_gaussian(rows, cols, rng).view(),
         big.view().block(2, 1, rows, cols));
    return big;
  };
  for (Trans ta : {Trans::No, Trans::Yes})
    for (Trans tb : {Trans::No, Trans::Yes})
      for (int m : {7, 8, 9, 17})
        for (int n : {7, 8, 9, 17})
          for (int k : {1, 5, 8, 40, 300}) {
            if (gemm_packs(m, n, k)) continue;
            const int ar = ta == Trans::No ? m : k, ac = ta == Trans::No ? k : m;
            const int br = tb == Trans::No ? k : n, bc = tb == Trans::No ? n : k;
            const Matrix abig = embedded(ar, ac), bbig = embedded(br, bc);
            Matrix cbig = embedded(m, n);
            Matrix cref = cbig;
            const ConstMatrixView a = abig.block(2, 1, ar, ac);
            const ConstMatrixView b = bbig.block(2, 1, br, bc);
            gemm(ta, tb, -0.75, a, b, 1.0, cbig.view().block(2, 1, m, n));
            gemm_naive(ta, tb, -0.75, a, b, 1.0,
                       cref.view().block(2, 1, m, n));
            EXPECT_LE(max_abs_diff(cbig.block(2, 1, m, n),
                                   cref.block(2, 1, m, n)),
                      tol(k))
                << "m=" << m << " n=" << n << " k=" << k
                << " ta=" << (ta == Trans::Yes) << " tb=" << (tb == Trans::Yes);
            for (int j = 0; j < n + 3; ++j)
              for (int i = 0; i < m + 5; ++i) {
                const bool inside = i >= 2 && i < m + 2 && j >= 1 && j < n + 1;
                EXPECT_EQ(std::isnan(cbig(i, j)), !inside)
                    << "(" << i << "," << j << ") m=" << m << " n=" << n
                    << " k=" << k << " ta=" << (ta == Trans::Yes)
                    << " tb=" << (tb == Trans::Yes);
              }
          }
}

TEST_F(GemmCore, WorkspaceIsReusableAcrossShapes) {
  Rng rng(5);
  GemmWorkspace ws;
  ws.reserve(64, 64, 64);
  for (int s : {64, 8, 200, 1, 96}) {
    Matrix a = random_gaussian(s, s, rng);
    Matrix b = random_gaussian(s, s, rng);
    Matrix c = random_gaussian(s, s, rng);
    Matrix cref = c;
    gemm(Trans::No, Trans::Yes, 1.0, a.view(), b.view(), 1.0, c.view(), ws);
    gemm_naive(Trans::No, Trans::Yes, 1.0, a.view(), b.view(), 1.0,
               cref.view());
    EXPECT_LE(max_abs_diff(c.view(), cref.view()), tol(s));
  }
}

TEST_F(GemmCore, NaiveBackendIsBitwiseIdenticalToReference) {
  set_gemm_backend(GemmBackend::Naive);
  Rng rng(99);
  Matrix a = random_gaussian(50, 30, rng);
  Matrix b = random_gaussian(30, 40, rng);
  Matrix c = random_gaussian(50, 40, rng);
  Matrix cref = c;
  gemm(Trans::No, Trans::No, 2.0, a.view(), b.view(), 0.5, c.view());
  gemm_naive(Trans::No, Trans::No, 2.0, a.view(), b.view(), 0.5, cref.view());
  EXPECT_EQ(max_abs_diff(c.view(), cref.view()), 0.0);
}

TEST_F(GemmCore, BackendAndBlockingRoundTrip) {
  set_gemm_backend(GemmBackend::Naive);
  EXPECT_EQ(gemm_backend(), GemmBackend::Naive);
  set_gemm_backend(GemmBackend::Packed);
  EXPECT_EQ(gemm_backend(), GemmBackend::Packed);
  set_gemm_blocking({32, 48, 60});
  EXPECT_EQ(gemm_blocking().mc, 32);
  EXPECT_EQ(gemm_blocking().kc, 48);
  EXPECT_EQ(gemm_blocking().nc, 60);
}

}  // namespace
}  // namespace hqr
