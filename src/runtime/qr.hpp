// One-call convenience API: hierarchical tile QR with sensible defaults.
//
// Picks the tile size, inner block and reduction trees from the matrix
// shape following the paper's guidance (§V-C: parallel low-level trees and
// the domino coupling for tall-skinny shapes; TS domains once column
// parallelism is plentiful), then factors through the shared-memory
// runtime. For full control use trees/hqr_tree.hpp + runtime/executor.hpp
// directly.
#pragma once

#include "core/factorization.hpp"
#include "trees/hqr_tree.hpp"

namespace hqr {

struct QROptions {
  int b = 0;        // tile size; 0 = choose from the shape
  // Inner block. 0 = the shape heuristic's b/4 when b or the tree is chosen
  // automatically, else default_ib(b); values above b are clamped to b.
  int ib = 0;
  int threads = 1;  // runtime workers
  // Override the automatic tree choice (used when auto_tree is false).
  bool auto_tree = true;
  HqrConfig tree{};
};

struct QRResult {
  Matrix q;          // m x min(m, n), orthonormal columns
  Matrix r;          // min(m, n) x n, upper triangular/trapezoidal
  HqrConfig tree;    // the configuration actually used
  int b = 0;
  int ib = 0;        // the inner block the kernels ran with
};

// Economy QR factorization of a (any shape).
QRResult qr(const Matrix& a, const QROptions& opts = {});

// Least-squares solve min ||A x - rhs||_2 (m >= n, full column rank);
// rhs is m x nrhs.
Matrix qr_solve(const Matrix& a, const Matrix& rhs,
                const QROptions& opts = {});

// The defaults qr() would pick for an m x n problem (exposed for tests and
// for callers who want to start from the heuristic and tweak).
QROptions default_qr_options(int m, int n, int threads = 1);

}  // namespace hqr
