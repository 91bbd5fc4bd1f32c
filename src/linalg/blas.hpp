// Level-1/2/3 BLAS-like primitives on views.
//
// Built from scratch (no external BLAS in this environment). GEMM lives in
// linalg/gemm.hpp (cache-blocked packed core + naive oracle); this header
// holds the triangular and vector primitives. All loops are
// transpose-resolved up front so the inner loops walk contiguous
// column-major memory with no per-element branches.
#pragma once

#include <span>

#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"

namespace hqr {

// Dot product of x(0:n) and y(0:n) in a fixed order: element i goes to
// partial sum i mod 8, and the eight partial sums combine pairwise,
// ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)). Eight independent
// chains vectorize without -ffast-math, and the order depends only on n, so
// every thread, rank and micro-kernel ISA gets the same bits. Every dot in
// the panel kernels, larfg, larf_left and larft goes through it.
// Inline, so the panel loops pay no call (and no spill of their live
// registers) per dot.
inline double dot(int n, const double* x, const double* y) {
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

enum class UpLo { Upper, Lower };
enum class Diag { NonUnit, Unit };

// B = op(A) * B where A is a k x k triangle and B is k x n (left side
// multiply). Only A's `uplo` triangle is read, and not its diagonal under
// Diag::Unit.
//
// One rule picks the path. When the packed GEMM backend is active and
// gemm_packs(k, n, k) holds, the product runs through the packed GEMM on a
// dense copy of the triangle (explicit zeros, and an explicit unit diagonal
// under Diag::Unit) and a copy of B, both in `scratch`, which must then
// hold trmm_scratch_doubles(k, n) entries. Otherwise, and always under the
// naive backend (the oracle), column loops run in place and `scratch` is
// not touched: eight columns of B at a time, one per lane of a vector
// staged on the stack, while k <= 64, and the rest one column at a time.
// Both keep the scalar loop's order of operations, but the lanes fuse every
// multiply-add, while GCC may compile the one-column dot loops (op(A) =
// A^T) as in-order sums of separately rounded products, so the two can
// differ in the last bits. Which one a column takes, like the choice
// between the paths, depends only on shapes and the backend, never on the
// micro-kernel ISA, so every caller computes the same bits for the same
// operands. Below the
// threshold (b = 8 tiles, ib = 16 at b = 64) packing costs more than it
// saves.
void trmm_left(UpLo uplo, Trans ta, Diag diag, ConstMatrixView a, MatrixView b,
               std::span<double> scratch, GemmWorkspace& ws);

// Scratch entries trmm_left's dense path needs for a k x k triangle and a
// k x n B: k (k + n).
std::size_t trmm_scratch_doubles(int k, int n);

// D = the `uplo` triangle of the m x k A (m >= k; a trapezoid when m > k)
// as a dense matrix: explicit zeros outside it and, under Diag::Unit, an
// explicit unit diagonal. Reads nothing outside the triangle, nor the
// diagonal under Diag::Unit.
void copy_triangle(UpLo uplo, Diag diag, ConstMatrixView a, MatrixView d);

// Solves op(A) * X = B in place (left side, triangular A).
void trsm_left(UpLo uplo, Trans ta, Diag diag, ConstMatrixView a, MatrixView b);

// Euclidean norm of an n x 1 view. The fast path sums the squares with the
// fixed-order dot and returns the square root when that sum ss satisfies
// 2^-991 <= ss <= DBL_MAX. ss finite means no square or partial sum
// overflowed (the terms are nonnegative, so an overflow leaves Inf and a NaN
// entry leaves NaN, both outside the range). An underflowed square or sum
// is off by at most 2^-1075 = u * DBL_MIN (u = 2^-53), and there are fewer
// than 2^31 of them, so their total error stays below u * 2^-991 <= u * ss:
// at most one extra rounding of ss. Outside the range, NaN and Inf included,
// the scaled one-pass loop (LAPACK's dlassq) runs, so huge, tiny and
// non-finite vectors behave as that loop defines: a NaN entry gives NaN, a
// single +-Inf entry gives Inf. The path and both summation orders depend
// only on the values, so every thread, rank and micro-kernel ISA gets the
// same bits.
double nrm2(ConstMatrixView x);

// Dot product of two n x 1 views, through the fixed-order dot above.
double dot(ConstMatrixView x, ConstMatrixView y);

// x *= alpha for an n x 1 view.
void scal(double alpha, MatrixView x);

}  // namespace hqr
