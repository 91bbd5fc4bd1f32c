#include "kernels/ib_kernels.hpp"

#include <algorithm>

#include "linalg/householder.hpp"

namespace hqr {
namespace {

// Validates ib and the T buffer (b columns, at least ib rows); returns the
// panel count.
int check_panels(int b, int ib, ConstMatrixView t) {
  HQR_CHECK(ib >= 1 && ib <= b, "inner block ib=" << ib << " out of [1, "
                                                  << b << "]");
  HQR_CHECK(t.rows >= ib && t.cols == b, "T is " << t.rows << " x " << t.cols
                                                 << ", needs at least " << ib
                                                 << " x " << b);
  return (b + ib - 1) / ib;
}

// Applies reflector j of a TSQRT/TTQRT panel, H = I - tau [1; v] [1; v]^T
// with v = A2(0:rows, j), to the pencil [A1(j, jj); A2(0:rows, jj)] of the
// panel's later columns jj = j + 1 .. end - 1.
void panel_update(MatrixView a1, MatrixView a2, int j, int end, int rows,
                  double tau) {
  const double* HQR_RESTRICT vj = a2.col(j).data;
  for (int jj = j + 1; jj < end; ++jj) {
    double* HQR_RESTRICT cj = a2.col(jj).data;
    const double s = tau * (a1(j, jj) + dot(rows, vj, cj));
    a1(j, jj) -= s;
    for (int i = 0; i < rows; ++i) cj[i] -= s * vj[i];
  }
}

}  // namespace

void geqrt_ib(MatrixView a, MatrixView t, int ib, TileWorkspace& ws) {
  const int b = ws.b();
  HQR_CHECK(a.rows == b && a.cols == b, "geqrt_ib expects b x b tiles");
  check_panels(b, ib, t);

  for (int j0 = 0; j0 < b; j0 += ib) {
    const int w = std::min(ib, b - j0);
    // Factor the panel columns with plain reflectors.
    MatrixView v = a.block(j0, j0, b - j0, w);
    MatrixView tp = t.block(0, j0, w, w);
    for (int l = 0; l < w; ++l) {
      const int j = j0 + l;
      const int below = b - j;
      double alpha = a(j, j);
      MatrixView x = below > 1 ? a.block(j + 1, j, below - 1, 1)
                               : MatrixView(nullptr, 0, 1, 1);
      const double tau = larfg(below, alpha, x);
      a(j, j) = alpha;
      if (l + 1 < w && tau != 0.0) {
        MatrixView c = a.block(j, j + 1, below, w - l - 1);
        larf_left(tau, x, c);
      }
      tp(l, l) = tau;
    }
    // T once the panel's reflectors are final: off the column loop's
    // larfg -> update chain, so the two latency chains do not interleave.
    larft(v, tp);
    // Block-apply the panel reflector to the trailing tile columns.
    const int trailing = b - (j0 + w);
    if (trailing > 0) {
      MatrixView c = a.block(j0, j0 + w, b - j0, trailing);
      larfb_left(Trans::Yes, v, tp, c, ws.scratch(), ws.gemm_ws());
    }
  }
}

void unmqr_ib(ConstMatrixView v, ConstMatrixView t, int ib, Trans trans,
              MatrixView c, TileWorkspace& ws) {
  const int b = ws.b();
  HQR_CHECK(v.rows == b && v.cols == b && c.rows == b,
            "unmqr_ib expects b x b tiles");
  const int panels = check_panels(b, ib, t);
  // Q = Q_p0 Q_p1 ... : Q^T applies panels forward, Q reversed.
  for (int pi = 0; pi < panels; ++pi) {
    const int p = trans == Trans::Yes ? pi : panels - 1 - pi;
    const int j0 = p * ib;
    const int w = std::min(ib, b - j0);
    ConstMatrixView vp = v.block(j0, j0, b - j0, w);
    ConstMatrixView tp = t.block(0, j0, w, w);
    MatrixView cc = c.block(j0, 0, b - j0, c.cols);
    larfb_left(trans, vp, tp, cc, ws.scratch(), ws.gemm_ws());
  }
}

void tsqrt_ib(MatrixView a1, MatrixView a2, MatrixView t, int ib,
              TileWorkspace& ws) {
  const int b = ws.b();
  HQR_CHECK(a1.rows == b && a2.rows == b, "tsqrt_ib expects b x b tiles");
  check_panels(b, ib, t);

  for (int j0 = 0; j0 < b; j0 += ib) {
    const int w = std::min(ib, b - j0);
    MatrixView tp = t.block(0, j0, w, w);
    // Panel factorization: one reflector per column, updates restricted to
    // the panel columns.
    for (int l = 0; l < w; ++l) {
      const int j = j0 + l;
      double alpha = a1(j, j);
      MatrixView v2j = a2.col(j);
      const double tau = larfg(b + 1, alpha, v2j);
      a1(j, j) = alpha;
      if (tau != 0.0) panel_update(a1, a2, j, j0 + w, b, tau);
      // T column l within the panel; the triangle multiplies wait for the
      // panel (as in geqrt_ib).
      for (int i = 0; i < l; ++i)
        tp(i, l) = -tau * dot(b, a2.col(j0 + i).data, a2.col(j).data);
      tp(l, l) = tau;
    }
    larft_finish(w, tp);
    // Block-apply the panel reflector to trailing columns of the pencil:
    // V = [E_p; V2p] with E_p the identity columns at panel rows.
    const int trailing = b - (j0 + w);
    if (trailing > 0) {
      ConstMatrixView v2p = a2.block(0, j0, b, w);
      MatrixView c1p = a1.block(j0, j0 + w, w, trailing);
      MatrixView c2p = a2.block(0, j0 + w, b, trailing);
      std::span<double> scratch = ws.scratch();
      MatrixView wk = carve(scratch, w, trailing);
      copy(c1p, wk);
      gemm(Trans::Yes, Trans::No, 1.0, v2p, c2p, 1.0, wk, ws.gemm_ws());
      trmm_left(UpLo::Upper, Trans::Yes, Diag::NonUnit, tp, wk, scratch,
                ws.gemm_ws());
      axpy(-1.0, wk, c1p);
      gemm(Trans::No, Trans::No, -1.0, v2p, wk, 1.0, c2p, ws.gemm_ws());
    }
  }
}

void tsmqr_ib(MatrixView c1, MatrixView c2, ConstMatrixView v2,
              ConstMatrixView t, int ib, Trans trans, TileWorkspace& ws) {
  const int b = ws.b();
  HQR_CHECK(c1.rows == b && c2.rows == b && v2.rows == b,
            "tsmqr_ib expects b x b tiles");
  const int panels = check_panels(b, ib, t);
  for (int pi = 0; pi < panels; ++pi) {
    const int p = trans == Trans::Yes ? pi : panels - 1 - pi;
    const int j0 = p * ib;
    const int w = std::min(ib, b - j0);
    ConstMatrixView v2p = v2.block(0, j0, b, w);
    ConstMatrixView tp = t.block(0, j0, w, w);
    MatrixView c1p = c1.block(j0, 0, w, c1.cols);
    std::span<double> scratch = ws.scratch();
    MatrixView wk = carve(scratch, w, c1.cols);
    copy(c1p, wk);
    gemm(Trans::Yes, Trans::No, 1.0, v2p, c2, 1.0, wk, ws.gemm_ws());
    trmm_left(UpLo::Upper, trans, Diag::NonUnit, tp, wk, scratch,
              ws.gemm_ws());
    axpy(-1.0, wk, c1p);
    gemm(Trans::No, Trans::No, -1.0, v2p, wk, 1.0, c2, ws.gemm_ws());
  }
}

namespace {

// Zero-padded copy of the triangular V2 panel of a TTQRT factorization:
// column l (global j0 + l) has stored rows 0 .. j0+l; everything below is
// another kernel's data and must read as zero.
void load_tt_panel(ConstMatrixView v2, int j0, int w, MatrixView wp) {
  set_zero(wp);
  for (int l = 0; l < w; ++l)
    for (int r = 0; r <= j0 + l; ++r) wp(r, l) = v2(r, j0 + l);
}

}  // namespace

void ttqrt_ib(MatrixView a1, MatrixView a2, MatrixView t, int ib,
              TileWorkspace& ws) {
  const int b = ws.b();
  HQR_CHECK(a1.rows == b && a2.rows == b, "ttqrt_ib expects b x b tiles");
  check_panels(b, ib, t);

  for (int j0 = 0; j0 < b; j0 += ib) {
    const int w = std::min(ib, b - j0);
    MatrixView tp = t.block(0, j0, w, w);
    for (int l = 0; l < w; ++l) {
      const int j = j0 + l;
      double alpha = a1(j, j);
      MatrixView v2j = a2.block(0, j, j + 1, 1);
      const double tau = larfg(j + 2, alpha, v2j);
      a1(j, j) = alpha;
      if (tau != 0.0) panel_update(a1, a2, j, j0 + w, j + 1, tau);
      for (int i = 0; i < l; ++i)
        tp(i, l) =
            -tau * dot(j0 + i + 1, a2.col(j0 + i).data, a2.col(j).data);
      tp(l, l) = tau;
    }
    larft_finish(w, tp);
    const int trailing = b - (j0 + w);
    if (trailing > 0) {
      const int rows = j0 + w;  // V2 panel support
      std::span<double> scratch = ws.scratch();
      MatrixView wp = carve(scratch, rows, w);
      load_tt_panel(a2, j0, w, wp);
      MatrixView c1p = a1.block(j0, j0 + w, w, trailing);
      MatrixView c2p = a2.block(0, j0 + w, rows, trailing);
      MatrixView wk = carve(scratch, w, trailing);
      copy(c1p, wk);
      gemm(Trans::Yes, Trans::No, 1.0, wp, c2p, 1.0, wk, ws.gemm_ws());
      trmm_left(UpLo::Upper, Trans::Yes, Diag::NonUnit, tp, wk, scratch,
                ws.gemm_ws());
      axpy(-1.0, wk, c1p);
      gemm(Trans::No, Trans::No, -1.0, wp, wk, 1.0, c2p, ws.gemm_ws());
    }
  }
}

void ttmqr_ib(MatrixView c1, MatrixView c2, ConstMatrixView v2,
              ConstMatrixView t, int ib, Trans trans, TileWorkspace& ws) {
  const int b = ws.b();
  HQR_CHECK(c1.rows == b && c2.rows == b && v2.rows == b,
            "ttmqr_ib expects b x b tiles");
  const int panels = check_panels(b, ib, t);
  for (int pi = 0; pi < panels; ++pi) {
    const int p = trans == Trans::Yes ? pi : panels - 1 - pi;
    const int j0 = p * ib;
    const int w = std::min(ib, b - j0);
    const int rows = j0 + w;
    std::span<double> scratch = ws.scratch();
    MatrixView wp = carve(scratch, rows, w);
    load_tt_panel(v2, j0, w, wp);
    ConstMatrixView tp = t.block(0, j0, w, w);
    MatrixView c1p = c1.block(j0, 0, w, c1.cols);
    MatrixView c2p = c2.block(0, 0, rows, c2.cols);
    MatrixView wk = carve(scratch, w, c1.cols);
    copy(c1p, wk);
    gemm(Trans::Yes, Trans::No, 1.0, wp, c2p, 1.0, wk, ws.gemm_ws());
    trmm_left(UpLo::Upper, trans, Diag::NonUnit, tp, wk, scratch,
              ws.gemm_ws());
    axpy(-1.0, wk, c1p);
    gemm(Trans::No, Trans::No, -1.0, wp, wk, 1.0, c2p, ws.gemm_ws());
  }
}

}  // namespace hqr
