#include "linalg/householder.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace hqr {

double larfg(int n, double& alpha, MatrixView x) {
  HQR_CHECK(x.cols == 1 && x.rows == n - 1, "larfg shape mismatch");
  if (n <= 1) return 0.0;
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

void larf_left(double tau, ConstMatrixView v_tail, MatrixView c,
               MatrixView work) {
  if (tau == 0.0) return;
  const int m = c.rows;
  const int n = c.cols;
  HQR_CHECK(v_tail.cols == 1 && v_tail.rows == m - 1, "larf shape mismatch");
  HQR_CHECK(work.rows >= n && work.cols == 1, "larf work too small");
  MatrixView w = work.block(0, 0, n, 1);

  // w = C^T * v  (v(0) = 1 implicit): the tail rows are one fused gemv,
  // then the implicit unit adds C's top row.
  if (m > 1) {
    gemv(Trans::Yes, 1.0, c.block(1, 0, m - 1, n), v_tail, 0.0, w);
    for (int j = 0; j < n; ++j) w(j, 0) += c(0, j);
  } else {
    for (int j = 0; j < n; ++j) w(j, 0) = c(0, j);
  }
  // C -= tau * v * w^T: top row explicitly, tail rows as a rank-1 ger.
  for (int j = 0; j < n; ++j) c(0, j) -= tau * w(j, 0);
  if (m > 1) ger(-tau, v_tail, w, c.block(1, 0, m - 1, n));
}

void larft_column(ConstMatrixView v, int j, double tau, MatrixView t) {
  const int m = v.rows;
  HQR_CHECK(j >= 0 && j < v.cols && t.rows >= j + 1 && t.cols >= j + 1,
            "larft shape mismatch");
  if (tau == 0.0) {
    for (int i = 0; i < j; ++i) t(i, j) = 0.0;
    t(j, j) = 0.0;
    return;
  }
  // t(0:j, j) = -tau * V(:, 0:j)^T * v_j, exploiting the unit-lower structure:
  // v_j has implicit 1 at row j and stored entries in rows j+1..m-1.
  const double* vj = v.data + static_cast<std::size_t>(j) * v.ld + j + 1;
  for (int i = 0; i < j; ++i) {
    // Column i of V: implicit 1 at row i, stored entries rows i+1..m-1.
    // Row j of column i times the implicit v_j(j) = 1, plus the rows below.
    const double* vi = v.data + static_cast<std::size_t>(i) * v.ld + j + 1;
    t(i, j) = -tau * (v(j, i) + dot(m - j - 1, vi, vj));
  }
  // t(0:j, j) = T(0:j, 0:j) * t(0:j, j)   (triangular multiply, in place).
  if (j > 0) {
    MatrixView tj = t.block(0, j, j, 1);
    trmm_left(UpLo::Upper, Trans::No, Diag::NonUnit,
              ConstMatrixView(t.data, j, j, t.ld), tj);
  }
  t(j, j) = tau;
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
