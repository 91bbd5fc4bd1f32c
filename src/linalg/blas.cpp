#include "linalg/blas.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/gemm.hpp"

namespace hqr {
namespace {

#if defined(__GNUC__) || defined(__clang__)
#define HQR_RESTRICT __restrict__
#else
#define HQR_RESTRICT
#endif

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

double dot(int n, const double* x, const double* y) {
  double s[8] = {};
  int i = 0;
  for (; i + 8 <= n; i += 8)
    for (int l = 0; l < 8; ++l) s[l] += x[i + l] * y[i + l];
  // The tail by hand: as a loop, GCC vectorizes it behind shape checks that
  // cost more than the few products, which shows on b = 8 tiles.
  x += i;
  y += i;
  switch (n - i) {
    case 7: s[6] += x[6] * y[6]; [[fallthrough]];
    case 6: s[5] += x[5] * y[5]; [[fallthrough]];
    case 5: s[4] += x[4] * y[4]; [[fallthrough]];
    case 4: s[3] += x[3] * y[3]; [[fallthrough]];
    case 3: s[2] += x[2] * y[2]; [[fallthrough]];
    case 2: s[1] += x[1] * y[1]; [[fallthrough]];
    case 1: s[0] += x[0] * y[0]; [[fallthrough]];
    default: break;
  }
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

void gemv(Trans ta, double alpha, ConstMatrixView a, ConstMatrixView x,
          double beta, MatrixView y) {
  HQR_CHECK(x.cols == 1 && y.cols == 1, "gemv expects vectors");
  const int m = ta == Trans::No ? a.rows : a.cols;
  const int k = ta == Trans::No ? a.cols : a.rows;
  HQR_CHECK(x.rows == k, "gemv inner dimension mismatch");
  HQR_CHECK(y.rows == m, "gemv output shape mismatch");
  double* HQR_RESTRICT yv = y.data;
  const double* HQR_RESTRICT xv = x.data;

  if (ta == Trans::No) {
    if (beta == 0.0) {
      for (int i = 0; i < m; ++i) yv[i] = 0.0;
    } else if (beta != 1.0) {
      for (int i = 0; i < m; ++i) yv[i] *= beta;
    }
    if (alpha == 0.0) return;
    // Fused-column accumulation: four columns of A per sweep of y.
    int l = 0;
    for (; l + 4 <= k; l += 4) {
      const double f0 = alpha * xv[l];
      const double f1 = alpha * xv[l + 1];
      const double f2 = alpha * xv[l + 2];
      const double f3 = alpha * xv[l + 3];
      const double* HQR_RESTRICT a0 =
          a.data + static_cast<std::size_t>(l) * a.ld;
      const double* HQR_RESTRICT a1 = a0 + a.ld;
      const double* HQR_RESTRICT a2 = a1 + a.ld;
      const double* HQR_RESTRICT a3 = a2 + a.ld;
      for (int i = 0; i < m; ++i)
        yv[i] += f0 * a0[i] + f1 * a1[i] + f2 * a2[i] + f3 * a3[i];
    }
    for (; l < k; ++l) {
      const double f = alpha * xv[l];
      const double* HQR_RESTRICT al =
          a.data + static_cast<std::size_t>(l) * a.ld;
      for (int i = 0; i < m; ++i) yv[i] += f * al[i];
    }
  } else {
    // y(j) = beta*y(j) + alpha * dot(A(:, j), x): contiguous column dots.
    for (int j = 0; j < m; ++j) {
      const double s =
          dot(k, a.data + static_cast<std::size_t>(j) * a.ld, xv);
      const double base = beta == 0.0 ? 0.0 : beta * yv[j];
      yv[j] = base + alpha * s;
    }
  }
}

void ger(double alpha, ConstMatrixView x, ConstMatrixView y, MatrixView a) {
  HQR_CHECK(x.cols == 1 && y.cols == 1, "ger expects vectors");
  HQR_CHECK(a.rows == x.rows && a.cols == y.rows, "ger shape mismatch");
  if (alpha == 0.0) return;
  const double* HQR_RESTRICT xv = x.data;
  for (int j = 0; j < a.cols; ++j) {
    const double f = alpha * y.data[j];
    if (f == 0.0) continue;
    double* HQR_RESTRICT aj = a.data + static_cast<std::size_t>(j) * a.ld;
    for (int i = 0; i < a.rows; ++i) aj[i] += f * xv[i];
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

void trmm_left(UpLo uplo, Trans ta, Diag diag, ConstMatrixView a,
               MatrixView b) {
  HQR_CHECK(!trmm_packs(a, b),
            "trmm_left of a " << a.rows << " x " << a.rows << " triangle and "
                              << b.cols
                              << " columns takes the dense path: pass scratch");
  trmm_left_small(uplo, ta, diag, a, b);
}

std::size_t trmm_scratch_doubles(int k, int n) {
  return static_cast<std::size_t>(k) * (static_cast<std::size_t>(k) + n);
}

namespace {

// Both triangular loops (trmm_left's scalar path, trsm_left) resolve
// (uplo, trans) into one of four column-major loops up front: the trans
// cases become contiguous column dots, the no-trans cases contiguous column
// axpy updates. No per-element transpose branch (op_at) in any inner loop.
void trmm_left_small(UpLo uplo, Trans ta, Diag diag, ConstMatrixView a,
                     MatrixView b) {
  const int n = a.rows;
  const bool unit = diag == Diag::Unit;

  for (int j = 0; j < b.cols; ++j) {
    double* HQR_RESTRICT x = b.data + static_cast<std::size_t>(j) * b.ld;
    if (ta == Trans::No && uplo == UpLo::Upper) {
      // x = A x, A upper: column l contributes a(0:l, l) * x(l); ascending
      // l leaves x(l) unread by earlier steps.
      for (int l = 0; l < n; ++l) {
        const double* HQR_RESTRICT al =
            a.data + static_cast<std::size_t>(l) * a.ld;
        const double xl = x[l];
        for (int i = 0; i < l; ++i) x[i] += al[i] * xl;
        if (!unit) x[l] = al[l] * xl;
      }
    } else if (ta == Trans::No && uplo == UpLo::Lower) {
      // x = A x, A lower: descending l.
      for (int l = n - 1; l >= 0; --l) {
        const double* HQR_RESTRICT al =
            a.data + static_cast<std::size_t>(l) * a.ld;
        const double xl = x[l];
        for (int i = l + 1; i < n; ++i) x[i] += al[i] * xl;
        if (!unit) x[l] = al[l] * xl;
      }
    } else if (ta == Trans::Yes && uplo == UpLo::Upper) {
      // x = A^T x, A upper (effective lower): x(i) = dot(a(0:i+1, i),
      // x(0:i+1)); descending i keeps the inputs live.
      for (int i = n - 1; i >= 0; --i) {
        const double* HQR_RESTRICT ai =
            a.data + static_cast<std::size_t>(i) * a.ld;
        double s = unit ? x[i] : ai[i] * x[i];
        for (int l = 0; l < i; ++l) s += ai[l] * x[l];
        x[i] = s;
      }
    } else {
      // x = A^T x, A lower (effective upper): ascending i.
      for (int i = 0; i < n; ++i) {
        const double* HQR_RESTRICT ai =
            a.data + static_cast<std::size_t>(i) * a.ld;
        double s = unit ? x[i] : ai[i] * x[i];
        for (int l = i + 1; l < n; ++l) s += ai[l] * x[l];
        x[i] = s;
      }
    }
  }
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
