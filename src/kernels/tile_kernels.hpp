// The six tile QR kernels of the paper (§II, Algorithm 2), from scratch.
//
// All kernels operate on b x b tiles with compact-WY storage:
//
//   GEQRT(A, T)        A <- {R in upper, V unit-lower below diag}, T built.
//   UNMQR(V, T, C)     C <- op(Q) C for the GEQRT reflector (TT/TS update of
//                      the killer row's trailing tiles).
//   TSQRT(A1, A2, T)   factors [R1; A2] (triangle on top of square):
//                      A1 upper triangle <- new R, A2 <- V2 (dense), T built.
//                      A1's strictly-lower part (the killer's own GEQRT V) is
//                      neither read nor written.
//   TSMQR(C1, C2, V2, T)  applies the TSQRT reflector to the tile pair
//                      [C1; C2] in trailing columns.
//   TTQRT(A1, A2, T)   factors [R1; R2] (triangle on top of triangle):
//                      A2's upper triangle <- V2 (upper triangular, stored
//                      diagonal); its strictly-lower part is untouched.
//   TTMQR(C1, C2, V2, T)  applies the TTQRT reflector to [C1; C2].
//
// Weights in b^3/3 flop units (paper §II): GEQRT 4, UNMQR 6, TSQRT 6,
// TSMQR 12, TTQRT 2, TTMQR 6. The kernels themselves (inner-blocked, with
// an ib x b T per tile) live in kernels/ib_kernels.hpp.
#pragma once

#include "linalg/blas.hpp"
#include "linalg/kernel_tuning.hpp"
#include "linalg/matrix.hpp"

namespace hqr {

// Scratch buffers reused across kernel invocations; one per worker thread.
// No kernel allocates: the GEMM packing buffers are pre-sized here for
// b x b products, so every task the worker runs reuses the same memory.
class TileWorkspace {
 public:
  explicit TileWorkspace(int b) : b_(b), w1_(b, b), w2_(b, b), vec_(b, 1) {
    HQR_CHECK(b >= 1, "tile size must be >= 1");
    // First workspace in the process pulls in the per-host tuning cache
    // (kernel shape, blocking) before sizing pack buffers.
    ensure_tuning_applied();
    gemm_.reserve(b, b, b);
  }

  int b() const { return b_; }
  MatrixView w1() { return w1_.view(); }
  MatrixView w2() { return w2_.view(); }
  MatrixView vec() { return vec_.view(); }
  GemmWorkspace& gemm_ws() { return gemm_; }

 private:
  int b_;
  Matrix w1_, w2_, vec_;
  GemmWorkspace gemm_;
};

}  // namespace hqr
