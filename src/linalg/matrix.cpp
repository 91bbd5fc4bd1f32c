#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

namespace hqr {

void copy(ConstMatrixView src, MatrixView dst) {
  HQR_CHECK(src.rows == dst.rows && src.cols == dst.cols,
            "copy shape mismatch: " << src.rows << "x" << src.cols << " vs "
                                    << dst.rows << "x" << dst.cols);
  for (int j = 0; j < src.cols; ++j) {
    const double* s = src.data + static_cast<std::size_t>(j) * src.ld;
    double* d = dst.data + static_cast<std::size_t>(j) * dst.ld;
    std::copy(s, s + src.rows, d);
  }
}

Matrix materialize(ConstMatrixView src) {
  Matrix m(src.rows, src.cols);
  copy(src, m.view());
  return m;
}

void set_zero(MatrixView dst) {
  for (int j = 0; j < dst.cols; ++j) {
    double* d = dst.data + static_cast<std::size_t>(j) * dst.ld;
    std::fill(d, d + dst.rows, 0.0);
  }
}

void set_identity(MatrixView dst) {
  set_zero(dst);
  const int n = std::min(dst.rows, dst.cols);
  for (int i = 0; i < n; ++i) dst(i, i) = 1.0;
}

void axpy(double alpha, ConstMatrixView src, MatrixView dst) {
  HQR_CHECK(src.rows == dst.rows && src.cols == dst.cols, "axpy shape mismatch");
  for (int j = 0; j < src.cols; ++j) {
    const double* s = src.data + static_cast<std::size_t>(j) * src.ld;
    double* d = dst.data + static_cast<std::size_t>(j) * dst.ld;
    for (int i = 0; i < src.rows; ++i) d[i] += alpha * s[i];
  }
}

MatrixView carve(std::span<double>& pool, int rows, int cols) {
  HQR_CHECK(rows >= 0 && cols >= 0, "negative dimension");
  const std::size_t n = static_cast<std::size_t>(rows) * cols;
  HQR_CHECK(pool.size() >= n, "scratch holds " << pool.size()
                                                << " doubles, needs " << n);
  MatrixView m(pool.data(), rows, cols, rows);
  pool = pool.subspan(n);
  return m;
}

double max_abs_diff(ConstMatrixView a, ConstMatrixView b) {
  HQR_CHECK(a.rows == b.rows && a.cols == b.cols, "diff shape mismatch");
  double m = 0.0;
  for (int j = 0; j < a.cols; ++j)
    for (int i = 0; i < a.rows; ++i)
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
  return m;
}

}  // namespace hqr
