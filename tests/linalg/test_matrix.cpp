#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

namespace hqr {
namespace {

TEST(Matrix, ZeroInitialized) {
  Matrix m(3, 4);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 3; ++i) EXPECT_EQ(m(i, j), 0.0);
}

TEST(Matrix, ElementAccessRoundTrips) {
  Matrix m(3, 3);
  m(1, 2) = 5.0;
  EXPECT_EQ(m(1, 2), 5.0);
  EXPECT_EQ(m(2, 1), 0.0);
}

TEST(Matrix, ColumnMajorStorage) {
  Matrix m(2, 2);
  m(0, 0) = 1;
  m(1, 0) = 2;
  m(0, 1) = 3;
  m(1, 1) = 4;
  const auto& s = m.storage();
  EXPECT_EQ(s[0], 1);
  EXPECT_EQ(s[1], 2);
  EXPECT_EQ(s[2], 3);
  EXPECT_EQ(s[3], 4);
}

TEST(Matrix, IdentityFactory) {
  Matrix m = Matrix::identity(3);
  for (int j = 0; j < 3; ++j)
    for (int i = 0; i < 3; ++i) EXPECT_EQ(m(i, j), i == j ? 1.0 : 0.0);
}

TEST(Matrix, ViewAliasesStorage) {
  Matrix m(3, 3);
  MatrixView v = m.view();
  v(2, 1) = 7.0;
  EXPECT_EQ(m(2, 1), 7.0);
}

TEST(Matrix, BlockViewHasCorrectStride) {
  Matrix m(4, 4);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 4; ++i) m(i, j) = i * 10 + j;
  MatrixView b = m.block(1, 2, 2, 2);
  EXPECT_EQ(b.rows, 2);
  EXPECT_EQ(b.cols, 2);
  EXPECT_EQ(b(0, 0), 12);
  EXPECT_EQ(b(1, 1), 23);
}

TEST(Matrix, NestedBlocks) {
  Matrix m(6, 6);
  m(3, 4) = 9.0;
  MatrixView outer = m.block(1, 1, 5, 5);
  MatrixView inner = outer.block(2, 3, 1, 1);
  EXPECT_EQ(inner(0, 0), 9.0);
}

TEST(Matrix, CopyBetweenStridedViews) {
  Matrix a(4, 4), b(4, 4);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 4; ++i) a(i, j) = i + j * 4;
  copy(a.block(1, 1, 2, 2), b.block(0, 2, 2, 2));
  EXPECT_EQ(b(0, 2), a(1, 1));
  EXPECT_EQ(b(1, 3), a(2, 2));
  EXPECT_EQ(b(0, 0), 0.0);
}

TEST(Matrix, CopyShapeMismatchThrows) {
  Matrix a(2, 2), b(3, 3);
  EXPECT_THROW(copy(a.view(), b.view()), Error);
}

TEST(Matrix, SetIdentityOnRectangularView) {
  Matrix m(3, 5);
  m.fill(2.0);
  set_identity(m.view());
  for (int j = 0; j < 5; ++j)
    for (int i = 0; i < 3; ++i) EXPECT_EQ(m(i, j), i == j ? 1.0 : 0.0);
}

TEST(Matrix, AxpyAccumulates) {
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 1;
  a(1, 1) = 2;
  b(0, 0) = 10;
  axpy(3.0, a.view(), b.view());
  EXPECT_EQ(b(0, 0), 13);
  EXPECT_EQ(b(1, 1), 6);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a(2, 2), b(2, 2);
  a(1, 0) = 1.0;
  b(1, 0) = -2.0;
  EXPECT_DOUBLE_EQ(max_abs_diff(a.view(), b.view()), 3.0);
}

TEST(Matrix, MaterializeDeepCopies) {
  Matrix a(2, 2);
  a(0, 1) = 4.0;
  Matrix c = materialize(a.block(0, 1, 2, 1));
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 1);
  EXPECT_EQ(c(0, 0), 4.0);
  a(0, 1) = 0.0;
  EXPECT_EQ(c(0, 0), 4.0);
}

TEST(Matrix, NegativeDimensionThrows) {
  EXPECT_THROW(Matrix(-1, 2), Error);
}

TEST(Matrix, CarveTakesCompactBlocksInTurn) {
  std::vector<double> buf(20);
  std::span<double> pool(buf);
  MatrixView a = carve(pool, 3, 4);
  MatrixView b = carve(pool, 2, 2);
  EXPECT_EQ(a.data, buf.data());
  EXPECT_EQ(a.ld, 3);
  EXPECT_EQ(b.data, buf.data() + 12);
  EXPECT_EQ(b.ld, 2);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_THROW(carve(pool, 5, 1), Error);
  EXPECT_EQ(pool.size(), 4u);
}

}  // namespace
}  // namespace hqr
