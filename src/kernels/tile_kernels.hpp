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

#include <memory>
#include <span>

#include "linalg/blas.hpp"
#include "linalg/householder.hpp"
#include "linalg/kernel_tuning.hpp"
#include "linalg/matrix.hpp"

namespace hqr {

// Scratch buffers reused across kernel invocations; one per worker thread.
// No kernel allocates: the GEMM packing buffers are pre-sized here for
// b x b products, so every task the worker runs reuses the same memory.
class TileWorkspace {
 public:
  explicit TileWorkspace(int b)
      : b_(b), scratch_size_(larfb_scratch_doubles(b, b, b)) {
    HQR_CHECK(b >= 1, "tile size must be >= 1");
    scratch_ = std::make_unique_for_overwrite<double[]>(scratch_size_);
    // First workspace in the process pulls in the per-host tuning cache
    // (kernel shape, blocking) before sizing pack buffers.
    ensure_tuning_applied();
    gemm_.reserve(b, b, b);
  }

  int b() const { return b_; }
  // The kernels' compact copies, carved off the front in turn: the
  // W = V^T C product, a V panel (larfb_left's unit-lower copy, TTQRT/
  // TTMQR's zero-padded V2 panel) and trmm_left's dense triangle and
  // right-hand side. Each is at most b x b, larfb_scratch_doubles(b, b, b)
  // = 4 b^2 entries in all. Left uninitialized: every use writes before it
  // reads, and pages no kernel reaches need not become resident.
  std::span<double> scratch() { return {scratch_.get(), scratch_size_}; }
  GemmWorkspace& gemm_ws() { return gemm_; }

 private:
  int b_;
  std::size_t scratch_size_;
  std::unique_ptr<double[]> scratch_;
  GemmWorkspace gemm_;
};

}  // namespace hqr
