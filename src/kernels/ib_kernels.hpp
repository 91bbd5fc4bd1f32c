// The tile kernels, inner-blocked (Buttari et al.'s PLASMA layout).
//
// Each tile is factored in column panels of width ib, with one ib x ib
// upper-triangular T per panel, stored side by side in the first ib rows of
// the T buffer (the ib x b T layout). Applications then cost 4 b^3 +
// O(ib b^2) flops, the paper's §II weights.
//
// Any 1 <= ib <= b works (the last panel may be narrower); ib == b is a
// single panel, i.e. one full b x b compact-WY T. A T buffer needs b
// columns and at least ib rows; rows past ib are neither read nor written.
#pragma once

#include <algorithm>

#include "kernels/tile_kernels.hpp"

namespace hqr {

// The inner block a caller gets by asking for the default (ib = 0): a
// single panel up to b = 32, 32-column panels beyond.
inline int default_ib(int b) { return std::min(b, 32); }

// A <- QR of the tile, panel width ib; T(0:ib, :) holds the stacked panel
// T factors (panel starting at column j0 occupies T(0:w, j0:j0+w)).
void geqrt_ib(MatrixView a, MatrixView t, int ib, TileWorkspace& ws);

// C <- op(Q) C for a geqrt_ib factorization. trans == Trans::Yes applies
// Q^T (the factorization update); Trans::No applies Q (building Q).
void unmqr_ib(ConstMatrixView v, ConstMatrixView t, int ib, Trans trans,
              MatrixView c, TileWorkspace& ws);

// Triangle-on-square factorization with panel width ib.
void tsqrt_ib(MatrixView a1, MatrixView a2, MatrixView t, int ib,
              TileWorkspace& ws);

// Applies a tsqrt_ib reflector to [C1; C2].
void tsmqr_ib(MatrixView c1, MatrixView c2, ConstMatrixView v2,
              ConstMatrixView t, int ib, Trans trans, TileWorkspace& ws);

// Triangle-on-triangle factorization with panel width ib.
void ttqrt_ib(MatrixView a1, MatrixView a2, MatrixView t, int ib,
              TileWorkspace& ws);

// Applies a ttqrt_ib reflector to [C1; C2]; only the upper triangle of v2
// is read.
void ttmqr_ib(MatrixView c1, MatrixView c2, ConstMatrixView v2,
              ConstMatrixView t, int ib, Trans trans, TileWorkspace& ws);

// The kernels at default_ib(b). The library itself always passes ib; these
// names remain because hqr_bench/local.cpp calls them.
inline void geqrt(MatrixView a, MatrixView t, TileWorkspace& ws) {
  geqrt_ib(a, t, default_ib(ws.b()), ws);
}
inline void unmqr(ConstMatrixView v, ConstMatrixView t, Trans trans,
                  MatrixView c, TileWorkspace& ws) {
  unmqr_ib(v, t, default_ib(ws.b()), trans, c, ws);
}
inline void tsqrt(MatrixView a1, MatrixView a2, MatrixView t,
                  TileWorkspace& ws) {
  tsqrt_ib(a1, a2, t, default_ib(ws.b()), ws);
}
inline void tsmqr(MatrixView c1, MatrixView c2, ConstMatrixView v2,
                  ConstMatrixView t, Trans trans, TileWorkspace& ws) {
  tsmqr_ib(c1, c2, v2, t, default_ib(ws.b()), trans, ws);
}
inline void ttqrt(MatrixView a1, MatrixView a2, MatrixView t,
                  TileWorkspace& ws) {
  ttqrt_ib(a1, a2, t, default_ib(ws.b()), ws);
}
inline void ttmqr(MatrixView c1, MatrixView c2, ConstMatrixView v2,
                  ConstMatrixView t, Trans trans, TileWorkspace& ws) {
  ttmqr_ib(c1, c2, v2, t, default_ib(ws.b()), trans, ws);
}

}  // namespace hqr
