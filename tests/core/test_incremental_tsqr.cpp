#include "core/incremental_tsqr.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.hpp"
#include "kernels/ib_kernels.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/ref_qr.hpp"

namespace hqr {
namespace {

// |R| must match the reference R of the stacked matrix (R is unique up to
// column signs for full-rank inputs).
void expect_r_matches(const Matrix& stacked, const Matrix& r, double tol) {
  RefQR ref = ref_qr_blocked(stacked, 8);
  Matrix rref = ref_extract_r(ref);
  ASSERT_EQ(r.rows(), rref.rows());
  ASSERT_EQ(r.cols(), rref.cols());
  for (int j = 0; j < r.cols(); ++j)
    for (int i = 0; i <= std::min(j, r.rows() - 1); ++i)
      EXPECT_NEAR(std::abs(r(i, j)), std::abs(rref(i, j)), tol)
          << "(" << i << "," << j << ")";
}

TEST(IncrementalTsqr, SingleBlockMatchesReference) {
  Rng rng(1);
  Matrix a = random_gaussian(40, 12, rng);
  IncrementalTSQR tsqr(12, 4);
  tsqr.add_rows(a);
  expect_r_matches(a, tsqr.r(), 1e-11);
}

TEST(IncrementalTsqr, ManyBlocksMatchStackedReference) {
  Rng rng(2);
  const int n = 10, b = 4;
  IncrementalTSQR tsqr(n, b);
  Matrix stacked(0, n);
  std::vector<Matrix> blocks;
  int total = 0;
  for (int rep = 0; rep < 6; ++rep) {
    const int rows = 3 + static_cast<int>(rng.below(20));
    blocks.push_back(random_gaussian(rows, n, rng));
    tsqr.add_rows(blocks.back());
    total += rows;
  }
  EXPECT_EQ(tsqr.rows_seen(), total);
  Matrix all(total, n);
  int at = 0;
  for (const auto& blk : blocks) {
    copy(blk.view(), all.block(at, 0, blk.rows(), n));
    at += blk.rows();
  }
  expect_r_matches(all, tsqr.r(), 1e-10);
}

TEST(IncrementalTsqr, FrobeniusNormPreserved) {
  // Orthogonal reductions preserve ||.||_F: ||R|| == ||A||.
  Rng rng(3);
  const int n = 8;
  IncrementalTSQR tsqr(n, 4);
  double ssq = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    Matrix blk = random_gaussian(15, n, rng);
    const double f = frobenius_norm(blk.view());
    ssq += f * f;
    tsqr.add_rows(blk);
  }
  Matrix r = tsqr.r();
  EXPECT_NEAR(frobenius_norm(r.view()), std::sqrt(ssq), 1e-9);
}

// r() reads the running triangle: R(i, j) equals its element (i, j) bit for
// bit for i <= j and i < min(rows, n), zero below. The triangle is private,
// so the reduction of one block is replayed here with the public kernels,
// as add_rows runs it: the running R (zero at first) kills tile (i, k) of
// the block, then both rows' trailing tiles are updated.
class TsqrReadout : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TsqrReadout, RIsTheRunningTrianglesUpperTrapezoid) {
  auto [m, n] = GetParam();
  const int b = 8, ib = default_ib(b);
  Rng rng(static_cast<std::uint64_t>(m) * 19 + n);
  const Matrix block = random_gaussian(m, n, rng);
  IncrementalTSQR tsqr(n, b);
  tsqr.add_rows(block);

  const int nt = TiledMatrix::tile_count(n, b);
  TiledMatrix tri(nt * b, n, b);
  TiledMatrix in = TiledMatrix::from_matrix(block, b);
  Matrix t(ib, b);
  TileWorkspace ws(b);
  for (int k = 0; k < nt; ++k)
    for (int i = 0; i < in.mt(); ++i) {
      tsqrt_ib(tri.tile(k, k), in.tile(i, k), t.view(), ib, ws);
      for (int j = k + 1; j < nt; ++j)
        tsmqr_ib(tri.tile(k, j), in.tile(i, j), in.tile(i, k), t.view(), ib,
                 Trans::Yes, ws);
    }

  const Matrix r = tsqr.r();
  const int k = std::min(m, n);
  ASSERT_EQ(r.rows(), k);
  ASSERT_EQ(r.cols(), n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < k; ++i)
      EXPECT_EQ(r(i, j), i <= j ? tri.at(i, j) : 0.0)
          << "(" << i << "," << j << ")";
}

INSTANTIATE_TEST_SUITE_P(Shapes, TsqrReadout,
                         ::testing::Values(std::tuple{53, 37},
                                           std::tuple{37, 53},
                                           std::tuple{5, 3}));

TEST(IncrementalTsqr, FewerRowsThanColumnsGivesTrapezoid) {
  Rng rng(4);
  Matrix a = random_gaussian(3, 8, rng);
  IncrementalTSQR tsqr(8, 4);
  tsqr.add_rows(a);
  Matrix r = tsqr.r();
  EXPECT_EQ(r.rows(), 3);
  EXPECT_EQ(r.cols(), 8);
  expect_r_matches(a, r, 1e-11);
}

TEST(IncrementalTsqr, BlockSmallerThanTile) {
  Rng rng(5);
  IncrementalTSQR tsqr(6, 8);  // b > n: single ragged tile column
  Matrix a1 = random_gaussian(2, 6, rng);
  Matrix a2 = random_gaussian(9, 6, rng);
  tsqr.add_rows(a1);
  tsqr.add_rows(a2);
  Matrix all(11, 6);
  copy(a1.view(), all.block(0, 0, 2, 6));
  copy(a2.view(), all.block(2, 0, 9, 6));
  expect_r_matches(all, tsqr.r(), 1e-11);
}

TEST(IncrementalTsqr, OrderOfBlocksDoesNotChangeRMagnitudes) {
  Rng rng(6);
  const int n = 6;
  Matrix b1 = random_gaussian(12, n, rng);
  Matrix b2 = random_gaussian(7, n, rng);
  IncrementalTSQR t12(n, 3), t21(n, 3);
  t12.add_rows(b1);
  t12.add_rows(b2);
  t21.add_rows(b2);
  t21.add_rows(b1);
  Matrix r12 = t12.r();
  Matrix r21 = t21.r();
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= j; ++i)
      EXPECT_NEAR(std::abs(r12(i, j)), std::abs(r21(i, j)), 1e-10);
}

TEST(IncrementalTsqr, RejectsWrongColumnCount) {
  IncrementalTSQR tsqr(5, 4);
  Matrix bad(3, 4);
  EXPECT_THROW(tsqr.add_rows(bad), Error);
}

TEST(IncrementalTsqr, RejectsEmptyBlock) {
  IncrementalTSQR tsqr(5, 4);
  Matrix empty(0, 5);
  EXPECT_THROW(tsqr.add_rows(empty), Error);
}

TEST(IncrementalTsqr, BadConstructionThrows) {
  EXPECT_THROW(IncrementalTSQR(0, 4), Error);
  EXPECT_THROW(IncrementalTSQR(4, 0), Error);
}

TEST(IncrementalTsqr, InterleavedAppendAndQueryIsNonDestructive) {
  // r() mid-stream must be a pure read: it matches the reference of the
  // rows seen so far, repeated calls are bit-identical, and appending
  // after a query behaves exactly as if the query never happened.
  Rng rng(8);
  const int n = 9, b = 4;
  IncrementalTSQR queried(n, b), untouched(n, b);
  Matrix stacked(0, n);
  for (int rep = 0; rep < 7; ++rep) {
    const int rows = 1 + static_cast<int>(rng.below(11));
    Matrix blk = random_gaussian(rows, n, rng);
    Matrix grown(stacked.rows() + rows, n);
    if (stacked.rows() > 0)
      copy(stacked.view(), grown.block(0, 0, stacked.rows(), n));
    copy(blk.view(), grown.block(stacked.rows(), 0, rows, n));
    stacked = std::move(grown);

    queried.add_rows(blk);
    untouched.add_rows(blk);

    Matrix r1 = queried.r();
    Matrix r2 = queried.r();
    EXPECT_EQ(max_abs_diff(r1.view(), r2.view()), 0.0) << "rep " << rep;
    expect_r_matches(stacked, r1, 1e-10);
  }
  // Querying every step vs never querying: same final state, bit for bit.
  EXPECT_EQ(max_abs_diff(queried.r().view(), untouched.r().view()), 0.0);
}

TEST(IncrementalTsqr, AgreesWithOneShotAcrossBlockSizes) {
  // The streaming reduction and the one-shot factorization of the full
  // stacked matrix must produce the same R magnitudes for every tile size
  // (different b means a different kernel sequence, so only |R| is pinned).
  Rng rng(9);
  const int n = 12;
  std::vector<Matrix> blocks;
  int total = 0;
  for (int rep = 0; rep < 5; ++rep) {
    blocks.push_back(random_gaussian(5 + 3 * rep, n, rng));
    total += blocks.back().rows();
  }
  Matrix all(total, n);
  int at = 0;
  for (const auto& blk : blocks) {
    copy(blk.view(), all.block(at, 0, blk.rows(), n));
    at += blk.rows();
  }
  for (int b : {2, 3, 4, 6, 12, 16}) {
    IncrementalTSQR tsqr(n, b);
    for (const auto& blk : blocks) tsqr.add_rows(blk);
    expect_r_matches(all, tsqr.r(), 1e-10);
  }
}

TEST(IncrementalTsqr, ManySmallSingleRowBlocks) {
  Rng rng(7);
  const int n = 5;
  IncrementalTSQR tsqr(n, 2);
  Matrix all(30, n);
  for (int i = 0; i < 30; ++i) {
    Matrix row = random_gaussian(1, n, rng);
    copy(row.view(), all.block(i, 0, 1, n));
    tsqr.add_rows(row);
  }
  expect_r_matches(all, tsqr.r(), 1e-10);
}

}  // namespace
}  // namespace hqr
