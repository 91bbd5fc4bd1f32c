// Dense column-major matrix storage and lightweight views.
//
// `Matrix` owns its storage (leading dimension == rows). `MatrixView` /
// `ConstMatrixView` are non-owning strided references used by all kernels so
// that tiles, panels and blocks can alias owned storage without copies.
#pragma once

#include <span>
#include <vector>

#include "common/check.hpp"

// No-alias qualifier for the kernels' raw column pointers.
#if defined(__GNUC__) || defined(__clang__)
#define HQR_RESTRICT __restrict__
#else
#define HQR_RESTRICT
#endif

namespace hqr {

struct ConstMatrixView;

// Non-owning mutable view of a column-major block.
struct MatrixView {
  double* data = nullptr;
  int rows = 0;
  int cols = 0;
  int ld = 0;  // leading dimension (stride between columns)

  MatrixView() = default;
  MatrixView(double* d, int r, int c, int l) : data(d), rows(r), cols(c), ld(l) {
    HQR_ASSERT(r >= 0 && c >= 0 && l >= r, "bad view shape");
  }

  double& operator()(int i, int j) const {
    HQR_ASSERT(i >= 0 && i < rows && j >= 0 && j < cols,
               "index (" << i << "," << j << ") out of " << rows << "x" << cols);
    return data[static_cast<std::size_t>(j) * ld + i];
  }

  // Sub-block of size nr x nc starting at (i0, j0).
  MatrixView block(int i0, int j0, int nr, int nc) const {
    HQR_ASSERT(i0 >= 0 && j0 >= 0 && i0 + nr <= rows && j0 + nc <= cols,
               "block out of range");
    return MatrixView(data + static_cast<std::size_t>(j0) * ld + i0, nr, nc, ld);
  }

  // Column j as an nr x 1 view starting at row i0.
  MatrixView col(int j, int i0 = 0) const { return block(i0, j, rows - i0, 1); }
};

// Non-owning read-only view.
struct ConstMatrixView {
  const double* data = nullptr;
  int rows = 0;
  int cols = 0;
  int ld = 0;

  ConstMatrixView() = default;
  ConstMatrixView(const double* d, int r, int c, int l)
      : data(d), rows(r), cols(c), ld(l) {
    HQR_ASSERT(r >= 0 && c >= 0 && l >= r, "bad view shape");
  }
  // Implicit widening from a mutable view.
  ConstMatrixView(const MatrixView& v)  // NOLINT(google-explicit-constructor)
      : data(v.data), rows(v.rows), cols(v.cols), ld(v.ld) {}

  double operator()(int i, int j) const {
    HQR_ASSERT(i >= 0 && i < rows && j >= 0 && j < cols,
               "index (" << i << "," << j << ") out of " << rows << "x" << cols);
    return data[static_cast<std::size_t>(j) * ld + i];
  }

  ConstMatrixView block(int i0, int j0, int nr, int nc) const {
    HQR_ASSERT(i0 >= 0 && j0 >= 0 && i0 + nr <= rows && j0 + nc <= cols,
               "block out of range");
    return ConstMatrixView(data + static_cast<std::size_t>(j0) * ld + i0, nr, nc,
                           ld);
  }

  ConstMatrixView col(int j, int i0 = 0) const {
    return block(i0, j, rows - i0, 1);
  }
};

// Owning dense column-major matrix, leading dimension == rows.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols) : rows_(rows), cols_(cols) {
    HQR_CHECK(rows >= 0 && cols >= 0, "negative dimension");
    data_.assign(static_cast<std::size_t>(rows) * cols, 0.0);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& operator()(int i, int j) {
    HQR_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_, "index out of range");
    return data_[static_cast<std::size_t>(j) * rows_ + i];
  }
  double operator()(int i, int j) const {
    HQR_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_, "index out of range");
    return data_[static_cast<std::size_t>(j) * rows_ + i];
  }

  MatrixView view() { return MatrixView(data_.data(), rows_, cols_, rows_); }
  ConstMatrixView view() const {
    return ConstMatrixView(data_.data(), rows_, cols_, rows_);
  }
  MatrixView block(int i0, int j0, int nr, int nc) {
    return view().block(i0, j0, nr, nc);
  }
  ConstMatrixView block(int i0, int j0, int nr, int nc) const {
    return view().block(i0, j0, nr, nc);
  }

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  // n x n identity.
  static Matrix identity(int n) {
    Matrix m(n, n);
    for (int i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  const std::vector<double>& storage() const { return data_; }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

// Deep copy helpers between (possibly strided) views.
void copy(ConstMatrixView src, MatrixView dst);
// Owning copy of a view.
Matrix materialize(ConstMatrixView src);
// Sets dst to zero.
void set_zero(MatrixView dst);
// Sets dst to the identity pattern (1 on diagonal, 0 elsewhere).
void set_identity(MatrixView dst);
// Elementwise dst += alpha * src.
void axpy(double alpha, ConstMatrixView src, MatrixView dst);
// Max |a(i,j) - b(i,j)|.
double max_abs_diff(ConstMatrixView a, ConstMatrixView b);

// Takes a compact rows x cols matrix (leading dimension rows) off the front
// of `pool` and shrinks `pool` past it; throws when the pool is too small.
// How the kernels lay out their copies in a worker's scratch.
MatrixView carve(std::span<double>& pool, int rows, int cols);

}  // namespace hqr
