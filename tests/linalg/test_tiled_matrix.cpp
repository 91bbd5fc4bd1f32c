#include "linalg/tiled_matrix.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "linalg/random_matrix.hpp"

namespace hqr {
namespace {

class TiledShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(TiledShapes, RoundTripsThroughTiles) {
  auto [m, n, b] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m) * 131 + n * 7 + b);
  Matrix a = random_uniform(m, n, rng);
  TiledMatrix t = TiledMatrix::from_matrix(a, b);
  Matrix back = t.to_matrix();
  EXPECT_EQ(max_abs_diff(a.view(), back.view()), 0.0);
}

TEST_P(TiledShapes, PaddingIsZero) {
  auto [m, n, b] = GetParam();
  Rng rng(5);
  Matrix a = random_uniform(m, n, rng);
  TiledMatrix t = TiledMatrix::from_matrix(a, b);
  Matrix padded = t.to_padded_matrix();
  for (int j = 0; j < t.padded_n(); ++j)
    for (int i = 0; i < t.padded_m(); ++i) {
      if (i >= m || j >= n) {
        EXPECT_EQ(padded(i, j), 0.0);
      }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, TiledShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{4, 4, 2},
                      std::tuple{5, 3, 2}, std::tuple{3, 5, 2},
                      std::tuple{7, 7, 3}, std::tuple{12, 8, 4},
                      std::tuple{9, 13, 5}, std::tuple{16, 16, 16},
                      std::tuple{10, 10, 32}, std::tuple{3, 11, 5}));

TEST(TiledMatrix, TileCountsCeil) {
  TiledMatrix t(10, 7, 4);
  EXPECT_EQ(t.mt(), 3);
  EXPECT_EQ(t.nt(), 2);
  EXPECT_EQ(t.padded_m(), 12);
  EXPECT_EQ(t.padded_n(), 8);
}

TEST(TiledMatrix, TileViewAliasesStorage) {
  TiledMatrix t(8, 8, 4);
  t.tile(1, 1)(2, 3) = 9.0;
  EXPECT_EQ(t.at(4 + 2, 4 + 3), 9.0);
}

TEST(TiledMatrix, TileIsContiguous) {
  TiledMatrix t(8, 8, 4);
  MatrixView v = t.tile(0, 1);
  EXPECT_EQ(v.ld, 4);
  EXPECT_EQ(v.rows, 4);
  EXPECT_EQ(v.cols, 4);
}

TEST(TiledMatrix, ElementSetGetAcrossTileBoundaries) {
  TiledMatrix t(6, 6, 4);
  t.set(5, 5, 2.5);
  EXPECT_EQ(t.at(5, 5), 2.5);
  EXPECT_EQ(t.tile(1, 1)(1, 1), 2.5);
}

TEST(TiledMatrix, BadShapeThrows) {
  EXPECT_THROW(TiledMatrix(4, 4, 0), Error);
  EXPECT_THROW(TiledMatrix(-1, 4, 2), Error);
}

TEST(TiledMatrix, ZeroSizedMatrix) {
  TiledMatrix t(0, 0, 4);
  EXPECT_EQ(t.mt(), 0);
  EXPECT_EQ(t.nt(), 0);
  Matrix back = t.to_matrix();
  EXPECT_EQ(back.rows(), 0);
}

}  // namespace
}  // namespace hqr
