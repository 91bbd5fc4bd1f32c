// Householder reflector machinery (LAPACK larfg/larf/larft/larfb analogues).
//
// Conventions follow LAPACK: a reflector H = I - tau * v * v^T with v(0) = 1
// stored implicitly; block reflectors use the compact-WY form
// Q = I - V * T * V^T with V unit-lower-trapezoidal and T upper triangular.
#pragma once

#include <span>

#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace hqr {

// Generates a Householder reflector for the vector [alpha; x] such that
// H * [alpha; x] = [beta; 0]. On return alpha holds beta, x holds v(1:) (with
// v(0) = 1 implicit), and tau is returned. x is an (n-1) x 1 view; n is the
// full vector length. If the input is already [alpha; 0], tau = 0.
double larfg(int n, double& alpha, MatrixView x);

// Applies H = I - tau * v * v^T from the left to C, where v is an m x 1 view
// with v(0) = 1 implicit (v.data points at v(1); v has m-1 stored entries).
// work must have at least C.cols entries. Implemented as one gemv (w = C^T v)
// plus one ger (C -= tau v w^T).
void larf_left(double tau, ConstMatrixView v_tail, MatrixView c,
               MatrixView work);

// Forms the j-th column of T from V (unit lower trapezoidal, m x k) and tau:
// T(0:j, j) = -tau * T(0:j, 0:j) * V(:, 0:j)^T * V(:, j), T(j,j) = tau.
// Called incrementally as factorizations progress. V(:, j) has its implicit
// unit at row j.
void larft_column(ConstMatrixView v, int j, double tau, MatrixView t);

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

}  // namespace hqr
