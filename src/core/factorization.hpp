// Tile QR factorization driven by an elimination list: the core public API.
//
// Any valid elimination list (single-level, hierarchical HQR, greedy, ...)
// fully determines the factorization (paper §II). This module executes the
// derived kernel list on real data, stores the compact-WY factors, and can
// form Q, apply Q/Q^T, extract R and solve least-squares problems.
#pragma once

#include <vector>

#include "kernels/tile_kernels.hpp"
#include "linalg/tiled_matrix.hpp"
#include "trees/elimination.hpp"

namespace hqr {

// The complete output of a tile QR factorization.
class QRFactors {
 public:
  // ib is the inner block of the kernels (kernels/ib_kernels.hpp), in
  // [1, b]; 0 picks default_ib(b).
  QRFactors(TiledMatrix a, KernelList kernels, int ib = 0);

  // Inner block size the kernels run with (never 0).
  int ib() const { return ib_; }

  int mt() const { return a_.mt(); }
  int nt() const { return a_.nt(); }
  int b() const { return a_.b(); }
  int m() const { return a_.m(); }
  int n() const { return a_.n(); }

  // Factored tiles: R in the upper "triangle" of the tile grid, Householder
  // data below.
  const TiledMatrix& a() const { return a_; }
  TiledMatrix& a() { return a_; }

  // T factor (ib x b) of GEQRT at (r, k) / of TSQRT-TTQRT killing (i, k).
  MatrixView t_geqrt(int r, int k);
  ConstMatrixView t_geqrt(int r, int k) const;
  MatrixView t_pencil(int i, int k);
  ConstMatrixView t_pencil(int i, int k) const;

  const KernelList& kernels() const { return kernels_; }

 private:
  TiledMatrix a_;
  KernelList kernels_;
  int ib_;
  int kmax_;
  std::vector<double> tg_storage_;  // (mt x kmax) T factors of ib x b
  std::vector<double> tp_storage_;
};

// Executes one kernel of a factorization in place. Exposed so that the
// shared-memory runtime and the sequential driver share one dispatch path.
void execute_kernel(const KernelOp& op, QRFactors& f, TileWorkspace& ws);

// Factors `a` (tiled with tile size b) using the given elimination list,
// executing kernels sequentially in list order. The list is not re-validated
// here (use trees/validate.hpp); an invalid list yields a wrong R, which the
// residual checks catch. ib is the inner block (0 = default_ib(b)).
QRFactors qr_factorize_sequential(const Matrix& a, int b,
                                  const EliminationList& list, int ib = 0);

// Forms the economy Q: padded_m x min(padded_m, padded_n) elements (slice
// the first m rows and min(m, n) columns for the unpadded factor). Wide
// matrices (n > m) yield the m x m orthogonal factor.
Matrix build_q(const QRFactors& f);

// Applies Q (trans = No) or Q^T (trans = Yes) to the tiled matrix c in
// place; c must have the same tile rows and tile size as the factorization.
// Only c's n() real columns take part: columns at or past c.n() are neither
// read nor written.
void apply_q(const QRFactors& f, Trans trans, TiledMatrix& c);

// The ordered update-kernel list realizing a Q (trans = No) or Q^T
// (trans = Yes) application on a target with nt_c tile columns. Each op is
// UNMQR/TSMQR/TTMQR with op.j = target tile column and (row, piv, k)
// naming the V/T source in the factorization. With economy = true, an op of
// panel k only touches columns >= k — valid only when the target starts as
// the identity (the build_q optimization). Feed to
// TaskGraph::apply_graph + the runtime for a parallel orgqr/ormqr.
KernelList q_apply_ops(const QRFactors& f, Trans trans, int nt_c,
                       bool economy = false);

// Executes one op of a Q application against c. The kernels get b x w
// views of c's tile column op.j, w = min(b, c.n() - op.j * b): columns at or
// past c.n() are neither read nor written (Q maps zero columns to zero).
void execute_apply_kernel(const KernelOp& op, const QRFactors& f, Trans trans,
                          TiledMatrix& c, TileWorkspace& ws);
// The same on a dense C whose rows are whole tile rows (c.rows ==
// f.a().padded_m()): C's tile (i, j) is the b x w block at row i * b, column
// j * b, w = min(b, c.cols - j * b), so a narrow C carries no padding columns.
void execute_apply_kernel(const KernelOp& op, const QRFactors& f, Trans trans,
                          MatrixView c, TileWorkspace& ws);

// Extracts the min(m, n) x n upper-triangular/trapezoidal R (unpadded).
Matrix extract_r(const QRFactors& f);

// Solves min ||A x - b||_2 through a tile QR with the given elimination
// list; a is m x n with m >= n, b is m x nrhs, result n x nrhs.
Matrix tile_least_squares(const Matrix& a, const Matrix& b, int tile_size,
                          const EliminationList& list);

}  // namespace hqr
