#include "linalg/blas.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/gemm.hpp"

namespace hqr {
namespace {

void trmm_left_small(UpLo uplo, Trans ta, Diag diag, ConstMatrixView a,
                     MatrixView b);

// trmm_left's path rule (blas.hpp): dense through the packed GEMM, or the
// scalar loops.
bool trmm_packs(ConstMatrixView a, ConstMatrixView b) {
  HQR_CHECK(a.cols == a.rows, "trmm expects square triangular A");
  HQR_CHECK(b.rows == a.rows, "trmm shape mismatch");
  return gemm_backend() == GemmBackend::Packed &&
         gemm_packs(a.rows, b.cols, a.rows);
}

}  // namespace

void copy_triangle(UpLo uplo, Diag diag, ConstMatrixView a, MatrixView d) {
  const int m = a.rows;
  HQR_CHECK(m >= a.cols && d.rows == m && d.cols == a.cols,
            "copy_triangle shape mismatch");
  for (int j = 0; j < a.cols; ++j) {
    const double* HQR_RESTRICT aj = a.data + static_cast<std::size_t>(j) * a.ld;
    double* HQR_RESTRICT dj = d.data + static_cast<std::size_t>(j) * d.ld;
    if (uplo == UpLo::Upper) {
      for (int i = 0; i < j; ++i) dj[i] = aj[i];
      for (int i = j + 1; i < m; ++i) dj[i] = 0.0;
    } else {
      for (int i = 0; i < j; ++i) dj[i] = 0.0;
      for (int i = j + 1; i < m; ++i) dj[i] = aj[i];
    }
    dj[j] = diag == Diag::Unit ? 1.0 : aj[j];
  }
}

void trmm_left(UpLo uplo, Trans ta, Diag diag, ConstMatrixView a, MatrixView b,
               std::span<double> scratch, GemmWorkspace& ws) {
  if (!trmm_packs(a, b)) {
    trmm_left_small(uplo, ta, diag, a, b);
    return;
  }
  const int k = a.rows;
  MatrixView tri = carve(scratch, k, k);
  MatrixView bc = carve(scratch, k, b.cols);
  copy_triangle(uplo, diag, a, tri);
  copy(b, bc);
  gemm(ta, Trans::No, 1.0, tri, bc, 0.0, b, ws);
}

std::size_t trmm_scratch_doubles(int k, int n) {
  return static_cast<std::size_t>(k) * (static_cast<std::size_t>(k) + n);
}

namespace {

// Eight doubles as one GCC vector: a zmm, two ymm or four xmm by target.
typedef double Vec8 __attribute__((vector_size(8 * sizeof(double))));
constexpr int kLanes = 8;
// Rows of the eight-column block trmm_left_small keeps on the stack (4 KB).
// Under the packed backend every triangle the rule keeps here with eight or
// more columns is smaller (k^2 n < 32768 needs k < 64 at n = 8); larger ones
// only reach this path under the naive backend, the oracle.
constexpr int kTrmmMaxK = 64;

// x = op(A) x for one right-hand side, or eight of them as the lanes of a
// Vec8 row: X is double or Vec8, and each lane keeps the scalar order
// (rounding may differ, blas.hpp).
// Both triangular loops (this and trsm_left) resolve (uplo, trans) into one
// of four column-major loops up front: the trans cases become contiguous
// column dots, the no-trans cases contiguous column axpy updates. No
// per-element transpose branch (op_at) in any inner loop.
template <class X>
void trmm_columns(UpLo uplo, Trans ta, bool unit, ConstMatrixView a,
                  X* HQR_RESTRICT x) {
  const int n = a.rows;
  if (ta == Trans::No && uplo == UpLo::Upper) {
    // x = A x, A upper: column l contributes a(0:l, l) * x(l); ascending
    // l leaves x(l) unread by earlier steps.
    for (int l = 0; l < n; ++l) {
      const double* HQR_RESTRICT al =
          a.data + static_cast<std::size_t>(l) * a.ld;
      const X xl = x[l];
      for (int i = 0; i < l; ++i) x[i] += al[i] * xl;
      if (!unit) x[l] = al[l] * xl;
    }
  } else if (ta == Trans::No && uplo == UpLo::Lower) {
    // x = A x, A lower: descending l.
    for (int l = n - 1; l >= 0; --l) {
      const double* HQR_RESTRICT al =
          a.data + static_cast<std::size_t>(l) * a.ld;
      const X xl = x[l];
      for (int i = l + 1; i < n; ++i) x[i] += al[i] * xl;
      if (!unit) x[l] = al[l] * xl;
    }
  } else if (ta == Trans::Yes && uplo == UpLo::Upper) {
    // x = A^T x, A upper (effective lower): x(i) = dot(a(0:i+1, i),
    // x(0:i+1)); descending i keeps the inputs live.
    for (int i = n - 1; i >= 0; --i) {
      const double* HQR_RESTRICT ai =
          a.data + static_cast<std::size_t>(i) * a.ld;
      X s = unit ? x[i] : ai[i] * x[i];
      for (int l = 0; l < i; ++l) s += ai[l] * x[l];
      x[i] = s;
    }
  } else {
    // x = A^T x, A lower (effective upper): ascending i.
    for (int i = 0; i < n; ++i) {
      const double* HQR_RESTRICT ai =
          a.data + static_cast<std::size_t>(i) * a.ld;
      X s = unit ? x[i] : ai[i] * x[i];
      for (int l = i + 1; l < n; ++l) s += ai[l] * x[l];
      x[i] = s;
    }
  }
}

// Eight columns of B at a time, transposed into Vec8 rows (one column per
// lane), while the triangle fits kTrmmMaxK; the rest one column at a time.
void trmm_left_small(UpLo uplo, Trans ta, Diag diag, ConstMatrixView a,
                     MatrixView b) {
  const int n = a.rows;
  const bool unit = diag == Diag::Unit;
  int j = 0;
  if (n <= kTrmmMaxK) {
    Vec8 x[kTrmmMaxK];
    for (; j + kLanes <= b.cols; j += kLanes) {
      double* bj = b.data + static_cast<std::size_t>(j) * b.ld;
      for (int c = 0; c < kLanes; ++c)
        for (int r = 0; r < n; ++r)
          x[r][c] = bj[static_cast<std::size_t>(c) * b.ld + r];
      trmm_columns(uplo, ta, unit, a, x);
      for (int c = 0; c < kLanes; ++c)
        for (int r = 0; r < n; ++r)
          bj[static_cast<std::size_t>(c) * b.ld + r] = x[r][c];
    }
  }
  for (; j < b.cols; ++j)
    trmm_columns(uplo, ta, unit, a,
                 b.data + static_cast<std::size_t>(j) * b.ld);
}

}  // namespace

void trsm_left(UpLo uplo, Trans ta, Diag diag, ConstMatrixView a, MatrixView b) {
  const int n = a.rows;
  HQR_CHECK(a.cols == n, "trsm expects square triangular A");
  HQR_CHECK(b.rows == n, "trsm shape mismatch");
  const bool unit = diag == Diag::Unit;

  for (int j = 0; j < b.cols; ++j) {
    double* HQR_RESTRICT x = b.data + static_cast<std::size_t>(j) * b.ld;
    if (ta == Trans::No && uplo == UpLo::Upper) {
      // Back substitution, column form: once x(l) is final, eliminate its
      // contribution from x(0:l) with the contiguous column a(0:l, l).
      for (int l = n - 1; l >= 0; --l) {
        const double* HQR_RESTRICT al =
            a.data + static_cast<std::size_t>(l) * a.ld;
        const double xl = unit ? x[l] : x[l] / al[l];
        x[l] = xl;
        for (int i = 0; i < l; ++i) x[i] -= al[i] * xl;
      }
    } else if (ta == Trans::No && uplo == UpLo::Lower) {
      // Forward substitution, column form.
      for (int l = 0; l < n; ++l) {
        const double* HQR_RESTRICT al =
            a.data + static_cast<std::size_t>(l) * a.ld;
        const double xl = unit ? x[l] : x[l] / al[l];
        x[l] = xl;
        for (int i = l + 1; i < n; ++i) x[i] -= al[i] * xl;
      }
    } else if (ta == Trans::Yes && uplo == UpLo::Upper) {
      // A^T lower: forward substitution via contiguous column dots.
      for (int i = 0; i < n; ++i) {
        const double* HQR_RESTRICT ai =
            a.data + static_cast<std::size_t>(i) * a.ld;
        double s = x[i];
        for (int l = 0; l < i; ++l) s -= ai[l] * x[l];
        x[i] = unit ? s : s / ai[i];
      }
    } else {
      // A^T upper: back substitution via contiguous column dots.
      for (int i = n - 1; i >= 0; --i) {
        const double* HQR_RESTRICT ai =
            a.data + static_cast<std::size_t>(i) * a.ld;
        double s = x[i];
        for (int l = i + 1; l < n; ++l) s -= ai[l] * x[l];
        x[i] = unit ? s : s / ai[i];
      }
    }
  }
}

double nrm2(ConstMatrixView x) {
  HQR_CHECK(x.cols == 1, "nrm2 expects a vector");
  // Fast path; the header gives the range and why it suffices.
  const double ss = dot(x.rows, x.data, x.data);
  if (ss >= 0x1p-991 && ss <= std::numeric_limits<double>::max())
    return std::sqrt(ss);
  // Scaled one-pass norm for overflow safety, as dlassq would do.
  double scale = 0.0;
  double ssq = 1.0;
  for (int i = 0; i < x.rows; ++i) {
    const double v = std::abs(x(i, 0));
    if (v == 0.0) continue;
    if (scale < v) {
      ssq = 1.0 + ssq * (scale / v) * (scale / v);
      scale = v;
    } else {
      ssq += (v / scale) * (v / scale);
    }
  }
  return scale * std::sqrt(ssq);
}

double dot(ConstMatrixView x, ConstMatrixView y) {
  HQR_CHECK(x.cols == 1 && y.cols == 1 && x.rows == y.rows,
            "dot shape mismatch");
  return dot(x.rows, x.data, y.data);
}

void scal(double alpha, MatrixView x) {
  HQR_CHECK(x.cols == 1, "scal expects a vector");
  for (int i = 0; i < x.rows; ++i) x(i, 0) *= alpha;
}

}  // namespace hqr
