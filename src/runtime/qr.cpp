#include "runtime/qr.hpp"

#include <algorithm>
#include <utility>

#include "runtime/executor.hpp"
#include "trees/validate.hpp"

namespace hqr {

QROptions default_qr_options(int m, int n, int threads) {
  QROptions o;
  o.threads = std::max(1, threads);
  // Tile size: large enough for kernel efficiency, small enough to expose
  // tasks; cap so a tall-skinny matrix still has several tile rows.
  const int k = std::max(1, std::min(m, n));
  o.b = std::clamp(k / 4, 8, 64);
  o.b = std::min({o.b, std::max(1, m), std::max(1, n) * 4});
  o.ib = std::max(1, o.b / 4);

  const int mt = TiledMatrix::tile_count(m, o.b);
  const int nt = TiledMatrix::tile_count(n, o.b);
  // Virtual clusters: one per worker caps inter-"cluster" reductions at the
  // parallelism we actually have; domains once each cluster has >= 4 rows.
  o.tree.p = std::clamp(o.threads, 1, std::max(1, mt / 2));
  o.tree.a = (mt / std::max(1, o.tree.p) >= 4) ? 2 : 1;
  o.tree.low = TreeKind::Greedy;
  o.tree.high = TreeKind::Fibonacci;
  // Few tile columns -> starved for parallelism -> couple the trees.
  o.tree.domino = nt <= std::max(4, mt / 8);
  o.auto_tree = false;
  return o;
}

namespace {

// Fills what the caller left to the shape heuristic. With b and the tree
// both given, an unset ib stays 0 for QRFactors to resolve.
QROptions resolve_options(const Matrix& a, QROptions o) {
  if (o.b <= 0 || o.auto_tree) {
    const QROptions d = default_qr_options(a.rows(), a.cols(), o.threads);
    if (o.b <= 0) o.b = d.b;
    if (o.ib <= 0) o.ib = d.ib;
    if (o.auto_tree) o.tree = d.tree;
  }
  o.ib = std::clamp(o.ib, 0, o.b);
  return o;
}

}  // namespace

QRResult qr(const Matrix& a, const QROptions& opts_in) {
  HQR_CHECK(a.rows() >= 1 && a.cols() >= 1, "empty matrix");
  const QROptions o = resolve_options(a, opts_in);

  const int mt = TiledMatrix::tile_count(a.rows(), o.b);
  const int nt = TiledMatrix::tile_count(a.cols(), o.b);
  EliminationList list = hqr_elimination_list(mt, nt, o.tree);
  HQR_ASSERT(validate_elimination_list(list, mt, nt).ok,
             "generator produced an invalid list");

  ExecutorOptions exec;
  exec.threads = o.threads;
  exec.ib = o.ib;
  QRFactors f = qr_factorize_parallel(a, o.b, list, exec);

  QRResult out;
  Matrix q_padded = build_q_parallel(f, exec);
  const int k = std::min(a.rows(), a.cols());
  // Q comes padded to whole tiles; slice only when there is padding.
  if (q_padded.rows() == a.rows() && q_padded.cols() == k)
    out.q = std::move(q_padded);
  else
    out.q = materialize(q_padded.block(0, 0, a.rows(), k));
  out.r = extract_r(f);
  out.tree = o.tree;
  out.b = o.b;
  out.ib = f.ib();
  return out;
}

Matrix qr_solve(const Matrix& a, const Matrix& rhs, const QROptions& opts_in) {
  HQR_CHECK(a.rows() >= a.cols(), "qr_solve expects m >= n");
  HQR_CHECK(rhs.rows() == a.rows(), "rhs row mismatch");
  const QROptions o = resolve_options(a, opts_in);

  EliminationList list =
      hqr_elimination_list(TiledMatrix::tile_count(a.rows(), o.b),
                           TiledMatrix::tile_count(a.cols(), o.b), o.tree);
  ExecutorOptions exec;
  exec.threads = o.threads;
  exec.ib = o.ib;
  QRFactors f = qr_factorize_parallel(a, o.b, list, exec);

  // Q^T B on a dense copy of B padded to whole tile rows only: b x b tiles
  // would pad a few right-hand sides to b columns (10 MB of zeros for
  // 4 columns at b = 200) that the apply kernels never touch.
  Matrix c(f.a().padded_m(), rhs.cols());
  copy(rhs.view(), c.block(0, 0, rhs.rows(), rhs.cols()));
  apply_q_parallel(f, Trans::Yes, c.view(), exec);
  const int n = a.cols();
  Matrix x = materialize(c.block(0, 0, n, rhs.cols()));
  Matrix r = extract_r(f);
  trsm_left(UpLo::Upper, Trans::No, Diag::NonUnit,
            ConstMatrixView(r.block(0, 0, n, n)), x.view());
  return x;
}

}  // namespace hqr
