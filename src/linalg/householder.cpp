#include "linalg/householder.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace hqr {

double detail::larfg_slow(double& alpha, MatrixView x) {
  const double xnorm = nrm2(x);
  if (xnorm == 0.0) return 0.0;  // already in the desired form

  double beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  // Guard against underflow in beta as dlarfg does (rescale loop).
  constexpr double safmin = 2.00416836000897278e-292;  // ~DBL_MIN/eps
  int rescale = 0;
  double a = alpha;
  double xn = xnorm;
  while (std::abs(beta) < safmin && rescale < 20) {
    const double inv = 1.0 / safmin;
    scal(inv, x);
    a *= inv;
    xn = nrm2(x);
    beta = -std::copysign(std::hypot(a, xn), a);
    ++rescale;
  }
  const double tau = (beta - a) / beta;
  scal(1.0 / (a - beta), x);
  for (int r = 0; r < rescale; ++r) beta *= safmin;
  alpha = beta;
  return tau;
}

void larft(ConstMatrixView v, MatrixView t) {
  const int m = v.rows;
  const int k = v.cols;
  HQR_CHECK(m >= k && t.rows >= k && t.cols >= k, "larft shape mismatch");
  // t(0:j, j) = -tau_j V(:, 0:j)^T v_j, exploiting the unit-lower structure:
  // v_j has its implicit 1 at row j and stored entries in rows j+1..m-1.
  for (int j = 1; j < k; ++j) {
    const double tau = t(j, j);
    if (tau == 0.0) {
      for (int i = 0; i < j; ++i) t(i, j) = 0.0;
      continue;
    }
    const double* vj = v.data + static_cast<std::size_t>(j) * v.ld + j + 1;
    for (int i = 0; i < j; ++i) {
      // Column i of V: implicit 1 at row i, stored entries rows i+1..m-1.
      // Row j of column i times the implicit v_j(j) = 1, plus the rows
      // below.
      const double* vi = v.data + static_cast<std::size_t>(i) * v.ld + j + 1;
      t(i, j) = -tau * (v(j, i) + dot(m - j - 1, vi, vj));
    }
  }
  larft_finish(k, t);
}

void larft_finish(int k, MatrixView t) {
  HQR_CHECK(k >= 0 && t.rows >= k && t.cols >= k, "larft shape mismatch");
  const std::size_t ld = static_cast<std::size_t>(t.ld);
  // Column l times the triangle T(0:l, 0:l) that ascending l has already
  // finished, in place, one row at a time in ascending i: x(i) = T(i, i)
  // x(i) + T(i, c) x(c) over ascending c > i reads only the x(c) not yet
  // overwritten. Each x(i) gets trmm_left's scalar order, and the rows are
  // independent chains.
  for (int l = 1; l < k; ++l) {
    const double* HQR_RESTRICT tt = t.data;  // columns 0..l-1, read only
    double* HQR_RESTRICT x = t.data + static_cast<std::size_t>(l) * ld;
    for (int i = 0; i < l; ++i) {
      double s = tt[i * ld + i] * x[i];
      for (int c = i + 1; c < l; ++c) s += tt[c * ld + i] * x[c];
      x[i] = s;
    }
  }
}

void larfb_left(Trans trans, ConstMatrixView v, ConstMatrixView t, MatrixView c,
                std::span<double> scratch, GemmWorkspace& ws) {
  const int m = c.rows;
  const int k = v.cols;
  HQR_CHECK(v.rows == m && m >= k && t.rows == k && t.cols == k,
            "larfb shape mismatch");
  if (k == 0) return;
  MatrixView w = carve(scratch, k, c.cols);
  MatrixView vd = carve(scratch, m, k);
  copy_triangle(UpLo::Lower, Diag::Unit, v, vd);
  gemm(Trans::Yes, Trans::No, 1.0, vd, c, 0.0, w, ws);          // W = V^T C
  trmm_left(UpLo::Upper, trans, Diag::NonUnit, t, w, scratch, ws);  // op(T) W
  gemm(Trans::No, Trans::No, -1.0, vd, w, 1.0, c, ws);          // C -= V W
}

void larfb_left(Trans trans, ConstMatrixView v, ConstMatrixView t,
                MatrixView c) {
  thread_local std::vector<double> scratch;
  thread_local GemmWorkspace ws;
  scratch.resize(std::max(scratch.size(),
                          larfb_scratch_doubles(c.rows, v.cols, c.cols)));
  larfb_left(trans, v, t, c, scratch, ws);
}

std::size_t larfb_scratch_doubles(int m, int k, int n) {
  return static_cast<std::size_t>(k) * n + static_cast<std::size_t>(m) * k +
         trmm_scratch_doubles(k, n);
}

}  // namespace hqr
