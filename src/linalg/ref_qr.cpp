#include "linalg/ref_qr.hpp"

#include <algorithm>

#include "linalg/blas.hpp"
#include "linalg/householder.hpp"

namespace hqr {
namespace {

// Factor columns [j0, j0+w) of `a` in place, assuming columns to the left are
// already factored; appends taus. Applies reflectors only within the panel.
void factor_panel(Matrix& a, int j0, int w, std::vector<double>& tau) {
  const int m = a.rows();
  for (int j = j0; j < j0 + w; ++j) {
    const int rows_below = m - j;
    double alpha = a(j, j);
    MatrixView x = rows_below > 1 ? a.block(j + 1, j, rows_below - 1, 1)
                                  : MatrixView(nullptr, 0, 1, 1);
    const double t = larfg(rows_below, alpha, x);
    a(j, j) = alpha;
    tau.push_back(t);
    // Apply H_j to the remaining panel columns.
    const int trailing = j0 + w - (j + 1);
    if (trailing > 0 && t != 0.0) {
      // Temporarily treat a(j,j) as the implicit 1.
      MatrixView c = a.block(j, j + 1, rows_below, trailing);
      larf_left(t, x, c);
    }
  }
}

}  // namespace

RefQR ref_qr_unblocked(const Matrix& a) {
  RefQR qr{a, {}};
  const int k = std::min(a.rows(), a.cols());
  qr.tau.reserve(k);
  const int m = a.rows();
  const int n = a.cols();
  for (int j = 0; j < k; ++j) {
    const int rows_below = m - j;
    double alpha = qr.a(j, j);
    MatrixView x = rows_below > 1 ? qr.a.block(j + 1, j, rows_below - 1, 1)
                                  : MatrixView(nullptr, 0, 1, 1);
    const double t = larfg(rows_below, alpha, x);
    qr.a(j, j) = alpha;
    qr.tau.push_back(t);
    if (j + 1 < n && t != 0.0) {
      MatrixView c = qr.a.block(j, j + 1, rows_below, n - j - 1);
      larf_left(t, x, c);
    }
  }
  return qr;
}

RefQR ref_qr_blocked(const Matrix& a, int nb) {
  HQR_CHECK(nb >= 1, "panel width must be >= 1");
  RefQR qr{a, {}};
  const int m = a.rows();
  const int n = a.cols();
  const int k = std::min(m, n);
  qr.tau.reserve(k);
  Matrix t(nb, nb);

  for (int j0 = 0; j0 < k; j0 += nb) {
    const int w = std::min(nb, k - j0);
    factor_panel(qr.a, j0, w, qr.tau);
    const int trailing = n - (j0 + w);
    if (trailing > 0) {
      // Build T for the panel and apply the block reflector to the trailing
      // matrix: C = (I - V T V^T)^T C.
      ConstMatrixView v = qr.a.block(j0, j0, m - j0, w);
      MatrixView tw = t.block(0, 0, w, w);
      for (int j = 0; j < w; ++j)
        tw(j, j) = qr.tau[static_cast<std::size_t>(j0) + j];
      larft(v, tw);
      MatrixView c = qr.a.block(j0, j0 + w, m - j0, trailing);
      larfb_left(Trans::Yes, v, tw, c);
    }
  }
  return qr;
}

Matrix ref_form_q(const RefQR& qr) {
  const int m = qr.rows();
  const int k = qr.k();
  Matrix q(m, k);
  set_identity(q.view());
  // Apply H_0 H_1 ... H_{k-1} to I by processing reflectors in reverse.
  for (int j = k - 1; j >= 0; --j) {
    const double tau = qr.tau[j];
    if (tau == 0.0) continue;
    const int rows_below = m - j;
    ConstMatrixView x = rows_below > 1 ? qr.a.block(j + 1, j, rows_below - 1, 1)
                                       : ConstMatrixView(nullptr, 0, 1, 1);
    MatrixView c = q.block(j, j, rows_below, k - j);
    larf_left(tau, x, c);
  }
  return q;
}

void ref_apply_q(const RefQR& qr, Trans trans, MatrixView c) {
  const int m = qr.rows();
  const int k = qr.k();
  HQR_CHECK(c.rows == m, "apply_q row mismatch");
  // Q = H_0 ... H_{k-1}; Q^T applies them forward, Q applies them reversed.
  const int start = trans == Trans::Yes ? 0 : k - 1;
  const int stop = trans == Trans::Yes ? k : -1;
  const int step = trans == Trans::Yes ? 1 : -1;
  for (int j = start; j != stop; j += step) {
    const double tau = qr.tau[j];
    if (tau == 0.0) continue;
    const int rows_below = m - j;
    ConstMatrixView x = rows_below > 1 ? qr.a.block(j + 1, j, rows_below - 1, 1)
                                       : ConstMatrixView(nullptr, 0, 1, 1);
    MatrixView cc = c.block(j, 0, rows_below, c.cols);
    larf_left(tau, x, cc);
  }
}

Matrix ref_extract_r(const RefQR& qr) {
  const int k = qr.k();
  const int n = qr.cols();
  Matrix r(k, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = qr.a(i, j);
  return r;
}

Matrix least_squares(const Matrix& a, const Matrix& b) {
  HQR_CHECK(a.rows() >= a.cols(), "least_squares expects m >= n");
  HQR_CHECK(b.rows() == a.rows(), "rhs row mismatch");
  const int n = a.cols();
  RefQR qr = ref_qr_blocked(a, std::min(32, std::max(1, n)));
  Matrix c = b;
  ref_apply_q(qr, Trans::Yes, c.view());
  Matrix x(n, b.cols());
  copy(c.block(0, 0, n, b.cols()), x.view());
  trsm_left(UpLo::Upper, Trans::No, Diag::NonUnit, qr.a.block(0, 0, n, n),
            x.view());
  return x;
}

}  // namespace hqr
