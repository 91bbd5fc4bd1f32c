// Streaming tall-and-skinny QR (TSQR) — the R-only reduction of the
// communication-avoiding QR literature the paper builds on (Demmel et al.
// [6], Langou's "computing the R of the QR factorization of tall and skinny
// matrices using MPI_Reduce" [19]).
//
// Maintains the R factor of all rows seen so far. Each arriving block of
// rows is reduced into the running triangle with the same TSQRT/TSMQR
// kernels the factorization uses: for each panel k, the block's tile (i, k)
// is killed by the running R's diagonal tile (k, k), exactly a flat TS tree
// whose killer persists across blocks. Memory stays O(n^2 + block), no
// matter how many rows stream through.
#pragma once

#include "kernels/tile_kernels.hpp"
#include "linalg/tiled_matrix.hpp"

namespace hqr {

class IncrementalTSQR {
 public:
  // n = number of columns, b = tile size.
  IncrementalTSQR(int n, int b);

  // Reduces a block of rows (any positive row count, exactly n columns)
  // into the running R.
  void add_rows(const Matrix& block);

  // Current min(rows_seen, n) x n upper-triangular/trapezoidal R: the R
  // factor of the vertical concatenation of all added blocks, up to the
  // usual column-sign ambiguity.
  Matrix r() const;

  long long rows_seen() const { return rows_seen_; }
  int cols() const { return n_; }

 private:
  int n_;
  int b_;
  int nt_;
  int ib_;  // inner block of the kernels: default_ib(b)
  long long rows_seen_ = 0;
  TiledMatrix r_tiles_;    // nt x nt tiles; upper triangle holds R
  Matrix t_scratch_;       // discarded T factor (R-only reduction)
  TileWorkspace ws_;
};

}  // namespace hqr
