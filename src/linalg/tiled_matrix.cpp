#include "linalg/tiled_matrix.hpp"

#include <algorithm>

namespace hqr {

namespace {

// Calls fn(ti, tj, h, w) for every tile of a grid of b x b tiles that meets
// the leading m x n elements; h x w is the tile's part of that range.
template <class Fn>
void for_each_tile_in(int m, int n, int b, Fn&& fn) {
  for (int tj = 0; tj * b < n; ++tj)
    for (int ti = 0; ti * b < m; ++ti)
      fn(ti, tj, std::min(b, m - ti * b), std::min(b, n - tj * b));
}

}  // namespace

int TiledMatrix::tile_count(int extent, int b) {
  HQR_CHECK(extent >= 0 && b >= 1,
            "bad tile count extent=" << extent << " b=" << b);
  return (extent + b - 1) / b;
}

TiledMatrix::TiledMatrix(int m, int n, int b)
    : m_(m), n_(n), b_(b), mt_(tile_count(m, b)), nt_(tile_count(n, b)) {
  data_.assign(static_cast<std::size_t>(mt_) * nt_ * b * b, 0.0);
}

std::size_t TiledMatrix::tile_offset(int ti, int tj) const {
  HQR_ASSERT(ti >= 0 && ti < mt_ && tj >= 0 && tj < nt_,
             "tile (" << ti << "," << tj << ") out of " << mt_ << "x" << nt_);
  return (static_cast<std::size_t>(tj) * mt_ + ti) *
         (static_cast<std::size_t>(b_) * b_);
}

TiledMatrix TiledMatrix::from_matrix(const Matrix& a, int b) {
  TiledMatrix t(a.rows(), a.cols(), b);
  for_each_tile_in(t.m_, t.n_, b, [&](int ti, int tj, int h, int w) {
    copy(a.block(ti * b, tj * b, h, w), t.tile(ti, tj).block(0, 0, h, w));
  });
  return t;
}

Matrix TiledMatrix::to_matrix() const { return leading_block(m_, n_); }

Matrix TiledMatrix::to_padded_matrix() const {
  return leading_block(padded_m(), padded_n());
}

Matrix TiledMatrix::leading_block(int m, int n) const {
  Matrix a(m, n);
  for_each_tile_in(m, n, b_, [&](int ti, int tj, int h, int w) {
    copy(tile(ti, tj).block(0, 0, h, w), a.block(ti * b_, tj * b_, h, w));
  });
  return a;
}

Matrix TiledMatrix::upper_trapezoid(int k, int n) const {
  HQR_CHECK(k >= 0 && k <= m_ && n >= 0 && n <= n_,
            "trapezoid " << k << "x" << n << " outside " << m_ << "x" << n_);
  Matrix r(k, n);
  for (int j = 0; j < n; ++j) {
    // Column j holds rows 0 .. min(j, k - 1), one segment per tile row.
    const int len = std::min(j + 1, k);
    for (int i0 = 0; i0 < len; i0 += b_) {
      const int h = std::min(b_, len - i0);
      copy(tile(i0 / b_, j / b_).block(0, j % b_, h, 1),
           r.block(i0, j, h, 1));
    }
  }
  return r;
}

MatrixView TiledMatrix::tile(int ti, int tj) {
  return MatrixView(data_.data() + tile_offset(ti, tj), b_, b_, b_);
}

ConstMatrixView TiledMatrix::tile(int ti, int tj) const {
  return ConstMatrixView(data_.data() + tile_offset(ti, tj), b_, b_, b_);
}

double TiledMatrix::at(int i, int j) const {
  HQR_ASSERT(i >= 0 && i < padded_m() && j >= 0 && j < padded_n(),
             "element out of padded range");
  return tile(i / b_, j / b_)(i % b_, j % b_);
}

void TiledMatrix::set(int i, int j, double v) {
  HQR_ASSERT(i >= 0 && i < padded_m() && j >= 0 && j < padded_n(),
             "element out of padded range");
  tile(i / b_, j / b_)(i % b_, j % b_) = v;
}

}  // namespace hqr
