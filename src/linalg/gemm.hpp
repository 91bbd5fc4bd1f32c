// Cache-blocked, register-tiled GEMM core.
//
// This is the compute engine under all six tile kernels. The design follows
// the classic Goto/BLIS decomposition:
//
//   - op(A) and op(B) are packed into contiguous, 64-byte-aligned panels
//     once per cache block, resolving `Trans` at pack time so the inner
//     loops never branch on it;
//   - an unrolled kMR x kNR (8 x 6) micro-kernel accumulates a register
//     block over the packed panels (FMA-friendly with -O3 on any
//     SSE2/AVX2/AVX-512 target);
//   - three blocking parameters MC/KC/NC stage the packed panels in
//     L2 / L1 / L3 respectively (see set_gemm_blocking to retune);
//   - fringe tiles, beta in {0, 1} and small problems (where packing
//     overhead would dominate, e.g. the narrow ib-blocked T-factor
//     updates) take specialized edge paths.
//
// The previous naive triple loop is retained verbatim as `gemm_naive` — it
// is the correctness oracle for tests and the baseline for bench-gated
// speedup tracking (see set_gemm_backend / bench_kernels).
#pragma once

#include <cstddef>
#include <memory>

#include "linalg/matrix.hpp"

namespace hqr {

enum class Trans { No, Yes };

// Cache blocking parameters: C is computed in NC-wide column slabs, each
// accumulated over KC-deep panels of op(A)/op(B), with op(A) packed in
// MC x KC blocks. Defaults target a ~32K L1 / ~1M L2 core; retune with
// set_gemm_blocking (values are rounded up to the micro-tile shape).
struct GemmBlocking {
  int mc = 144;
  int kc = 256;
  int nc = 4092;
};

// Process-wide blocking used by subsequently-created packing buffers.
// Not thread-safe against concurrent gemm calls; set it at startup or in
// single-threaded test/tuning code.
void set_gemm_blocking(const GemmBlocking& blocking);
GemmBlocking gemm_blocking();

// True once set_gemm_blocking has been called in this process. The lazy
// tuning-cache hook (kernel_tuning.hpp) checks this so a deliberate
// blocking choice made before the first TileWorkspace is never clobbered.
bool gemm_blocking_was_set();

// Backend selector for benchmarking and differential testing: Packed is
// the production cache-blocked core, Naive the retained reference loops.
// Setting HQR_GEMM_BACKEND=naive in the environment selects Naive at
// startup (so any bench binary can produce its own baseline run).
enum class GemmBackend { Packed, Naive };
void set_gemm_backend(GemmBackend backend);
GemmBackend gemm_backend();

// Reusable packing buffers for the blocked core. One per worker thread
// (TileWorkspace owns one); gemm() grows them on demand and never shrinks,
// so steady-state calls allocate nothing.
class GemmWorkspace {
 public:
  GemmWorkspace() = default;

  // Pre-sizes the buffers for products up to (m x k) * (k x n) under the
  // current blocking so later gemm calls never allocate.
  void reserve(int m, int n, int k);

  // Aligned scratch of at least `doubles` entries (grown geometrically).
  double* a_pack(std::size_t doubles) { return a_.ensure(doubles); }
  double* b_pack(std::size_t doubles) { return b_.ensure(doubles); }

 private:
  struct AlignedBuffer {
    std::unique_ptr<double[], void (*)(double*)> data{nullptr, nullptr};
    std::size_t capacity = 0;

    double* ensure(std::size_t doubles);
  };

  AlignedBuffer a_, b_;
};

// True when the packed backend runs an m x n x k product (C is m x n, the
// inner dimension k) through the packed core; false when it takes the
// direct loops for problems too small to amortize packing. The rule depends
// only on the shape, never on the active micro-kernel, so callers that
// choose a path by it (trmm_left) choose the same one under every ISA.
bool gemm_packs(int m, int n, int k);

// C = alpha * op(A) * op(B) + beta * C through the selected backend. The
// workspace-less overload uses a thread-local GemmWorkspace.
void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c);
void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c, GemmWorkspace& ws);

// Reference implementation (the pre-blocking loops), kept as the
// correctness oracle and benchmark baseline.
void gemm_naive(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                ConstMatrixView b, double beta, MatrixView c);

}  // namespace hqr
