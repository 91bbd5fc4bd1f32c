// Householder reflector machinery (LAPACK larfg/larf/larft/larfb analogues).
//
// Conventions follow LAPACK: a reflector H = I - tau * v * v^T with v(0) = 1
// stored implicitly; block reflectors use the compact-WY form
// Q = I - V * T * V^T with V unit-lower-trapezoidal and T upper triangular.
#pragma once

#include <cmath>
#include <span>

#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace hqr {

// Generates a Householder reflector for the vector [alpha; x] such that
// H * [alpha; x] = [beta; 0]. On return alpha holds beta, x holds v(1:) (with
// v(0) = 1 implicit), and tau is returned. x is an (n-1) x 1 view; n is the
// full vector length. If the input is already [alpha; 0], tau = 0.
//
// The fast path takes ss = x^T x from the fixed-order dot and computes
// beta = -copysign(sqrt(alpha^2 + ss), alpha) when 2^-991 <= ss <= 2^1000
// and |alpha| <= 2^500. There alpha^2 + ss <= 2^1001 cannot overflow, and
// an underflowed square (in ss or alpha^2) is off by at most 2^-1075, below
// u * 2^-991 <= u * ss in total as nrm2's argument gives (u = 2^-53): at
// most one extra rounding. |beta| >= 2^-495.5 lies far above dlarfg's
// rescale threshold (~2^-969), and alpha - beta, of magnitude
// |alpha| + |beta|, neither underflows nor overflows, so the rescale loop
// would never run. Outside the range (a zero tail, huge or tiny entries,
// NaN and +-Inf included) nrm2, hypot and the rescale loop run as in
// dlarfg: a NaN in alpha or x gives NaN tau, beta and tail; a +-Inf gives
// NaN tau, beta = -copysign(Inf, alpha) and NaN in the Inf's place with
// zeros elsewhere in the tail. The path depends only on the values, so
// every thread, rank and micro-kernel ISA gets the same bits. Inline
// (defined below), as is larf_left.
inline double larfg(int n, double& alpha, MatrixView x);

// Applies H = I - tau * v * v^T from the left to C, where v is an m x 1 view
// with v(0) = 1 implicit (v.data points at v(1); v has m-1 stored entries).
// One pass per column of C: w = C(0, j) + v(1:)^T C(1:, j) through the
// fixed-order dot, then C(:, j) -= tau w [1; v(1:)].
inline void larf_left(double tau, ConstMatrixView v_tail, MatrixView c);

// Forms the compact-WY T (k x k upper triangular) of the k reflectors in V
// (unit lower trapezoidal, m x k, m >= k): on entry T's diagonal holds the
// taus; on return T(0:j, j) = -tau_j T(0:j, 0:j) V(:, 0:j)^T V(:, j) for
// every j (zeros for a tau of 0). V's upper triangle and diagonal are not
// read. The dots go through the fixed-order dot, the triangle multiplies
// through larft_finish.
void larft(ConstMatrixView v, MatrixView t);

// The triangle multiplies of a k-column T, shared by larft and the
// TSQRT/TTQRT panels once every T(0:l, l) holds -tau_l V(:, 0:l)^T v_l
// (and the diagonal the taus): for ascending l, T(0:l, l) = T(0:l, 0:l)
// T(0:l, l) in place, each entry in trmm_left's scalar order. One column
// never packs, so this skips trmm_left's path rule and its dispatch.
void larft_finish(int k, MatrixView t);

// Applies the block reflector Q = I - V T V^T (or Q^T) from the left to C.
// V is m x k unit-lower-trapezoidal (m >= k; its upper triangle and
// diagonal are not read), T is k x k upper triangular. W = V^T C and
// C -= V W are single GEMMs over an explicit unit-lower copy of V, so
// op(T) W is the only triangle multiply. `scratch` holds W, the copy of V
// and trmm_left's scratch, compactly: larfb_scratch_doubles(m, k, C.cols)
// entries. Kernel code passes its TileWorkspace's scratch and packing
// buffers so no task allocates.
void larfb_left(Trans trans, ConstMatrixView v, ConstMatrixView t, MatrixView c,
                std::span<double> scratch, GemmWorkspace& ws);

// The same with thread-local scratch and packing buffers (ref_qr, tests).
void larfb_left(Trans trans, ConstMatrixView v, ConstMatrixView t,
                MatrixView c);

// Scratch entries larfb_left needs for an m x k V and n columns of C:
// k n (W) + m k (V) + trmm_scratch_doubles(k, n).
std::size_t larfb_scratch_doubles(int m, int k, int n);

// larfg and larf_left are inline: the panel kernels call them once per
// column, where at b = 8 a call (and the spill of the caller's live vector
// registers it forces) costs more than the work.
namespace detail {
// larfg outside its fast range: dlarfg's nrm2, hypot and rescale loop.
double larfg_slow(double& alpha, MatrixView x);
}  // namespace detail

inline double larfg(int n, double& alpha, MatrixView x) {
  HQR_CHECK(x.cols == 1 && x.rows == n - 1, "larfg shape mismatch");
  if (n <= 1) return 0.0;
  const double ss = dot(x.rows, x.data, x.data);
  if (ss >= 0x1p-991 && ss <= 0x1p1000 && std::abs(alpha) <= 0x1p500) {
    const double beta = -std::copysign(std::sqrt(alpha * alpha + ss), alpha);
    const double tau = (beta - alpha) / beta;
    const double inv = 1.0 / (alpha - beta);
    for (int i = 0; i < x.rows; ++i) x.data[i] *= inv;
    alpha = beta;
    return tau;
  }
  return detail::larfg_slow(alpha, x);
}

inline void larf_left(double tau, ConstMatrixView v_tail, MatrixView c) {
  if (tau == 0.0) return;
  const int m = c.rows;
  HQR_CHECK(v_tail.cols == 1 && v_tail.rows == m - 1, "larf shape mismatch");
  const double* HQR_RESTRICT v = v_tail.data;
  for (int j = 0; j < c.cols; ++j) {
    double* HQR_RESTRICT cj = c.data + static_cast<std::size_t>(j) * c.ld;
    const double s = tau * (cj[0] + dot(m - 1, v, cj + 1));
    cj[0] -= s;
    for (int i = 1; i < m; ++i) cj[i] -= s * v[i - 1];
  }
}

}  // namespace hqr
