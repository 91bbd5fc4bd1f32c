#include "core/factorization.hpp"

#include <algorithm>

#include "kernels/ib_kernels.hpp"
#include "linalg/blas.hpp"

namespace hqr {

namespace {

int resolve_ib(int ib, int b) {
  HQR_CHECK(ib >= 0 && ib <= b,
            "inner block ib=" << ib << " out of [0, " << b << "]");
  return ib == 0 ? default_ib(b) : ib;
}

// Runs one Q-application op; ct(ti) is the b x w view of C's tile
// (ti, op.j).
template <class CTile>
void apply_op(const KernelOp& op, const QRFactors& f, Trans trans,
              const CTile& ct, TileWorkspace& ws) {
  const TiledMatrix& a = f.a();
  const int ib = f.ib();
  switch (op.type) {
    case KernelType::UNMQR:
      unmqr_ib(a.tile(op.row, op.k), f.t_geqrt(op.row, op.k), ib, trans,
               ct(op.row), ws);
      break;
    case KernelType::TSMQR:
      tsmqr_ib(ct(op.piv), ct(op.row), a.tile(op.row, op.k),
               f.t_pencil(op.row, op.k), ib, trans, ws);
      break;
    case KernelType::TTMQR:
      ttmqr_ib(ct(op.piv), ct(op.row), a.tile(op.row, op.k),
               f.t_pencil(op.row, op.k), ib, trans, ws);
      break;
    default:
      HQR_CHECK(false, "not a Q-application kernel");
  }
}

}  // namespace

QRFactors::QRFactors(TiledMatrix a, KernelList kernels, int ib)
    : a_(std::move(a)),
      kernels_(std::move(kernels)),
      ib_(resolve_ib(ib, a_.b())),
      kmax_(std::min(a_.mt(), a_.nt())) {
  const std::size_t tiles = static_cast<std::size_t>(a_.mt()) * kmax_;
  const std::size_t t_elems = static_cast<std::size_t>(ib_) * a_.b();
  tg_storage_.assign(tiles * t_elems, 0.0);
  tp_storage_.assign(tiles * t_elems, 0.0);
}

MatrixView QRFactors::t_geqrt(int r, int k) {
  HQR_ASSERT(r >= 0 && r < mt() && k >= 0 && k < kmax_, "T index out of range");
  const std::size_t te = static_cast<std::size_t>(ib_) * b();
  return MatrixView(
      tg_storage_.data() + (static_cast<std::size_t>(k) * mt() + r) * te, ib_,
      b(), ib_);
}

ConstMatrixView QRFactors::t_geqrt(int r, int k) const {
  return const_cast<QRFactors*>(this)->t_geqrt(r, k);
}

MatrixView QRFactors::t_pencil(int i, int k) {
  HQR_ASSERT(i >= 0 && i < mt() && k >= 0 && k < kmax_, "T index out of range");
  const std::size_t te = static_cast<std::size_t>(ib_) * b();
  return MatrixView(
      tp_storage_.data() + (static_cast<std::size_t>(k) * mt() + i) * te, ib_,
      b(), ib_);
}

ConstMatrixView QRFactors::t_pencil(int i, int k) const {
  return const_cast<QRFactors*>(this)->t_pencil(i, k);
}

void execute_kernel(const KernelOp& op, QRFactors& f, TileWorkspace& ws) {
  TiledMatrix& a = f.a();
  const int ib = f.ib();
  switch (op.type) {
    case KernelType::GEQRT:
      geqrt_ib(a.tile(op.row, op.k), f.t_geqrt(op.row, op.k), ib, ws);
      break;
    case KernelType::UNMQR:
      unmqr_ib(a.tile(op.row, op.k), f.t_geqrt(op.row, op.k), ib, Trans::Yes,
               a.tile(op.row, op.j), ws);
      break;
    case KernelType::TSQRT:
      tsqrt_ib(a.tile(op.piv, op.k), a.tile(op.row, op.k),
               f.t_pencil(op.row, op.k), ib, ws);
      break;
    case KernelType::TSMQR:
      tsmqr_ib(a.tile(op.piv, op.j), a.tile(op.row, op.j), a.tile(op.row, op.k),
               f.t_pencil(op.row, op.k), ib, Trans::Yes, ws);
      break;
    case KernelType::TTQRT:
      ttqrt_ib(a.tile(op.piv, op.k), a.tile(op.row, op.k),
               f.t_pencil(op.row, op.k), ib, ws);
      break;
    case KernelType::TTMQR:
      ttmqr_ib(a.tile(op.piv, op.j), a.tile(op.row, op.j), a.tile(op.row, op.k),
               f.t_pencil(op.row, op.k), ib, Trans::Yes, ws);
      break;
  }
}

QRFactors qr_factorize_sequential(const Matrix& a, int b,
                                  const EliminationList& list, int ib) {
  TiledMatrix tiled = TiledMatrix::from_matrix(a, b);
  KernelList kernels = expand_to_kernels(list, tiled.mt(), tiled.nt());
  QRFactors f(std::move(tiled), std::move(kernels), ib);
  TileWorkspace ws(b);
  for (const KernelOp& op : f.kernels()) execute_kernel(op, f, ws);
  return f;
}

KernelList q_apply_ops(const QRFactors& f, Trans trans, int nt_c,
                       bool economy) {
  const KernelList factors = factor_kernels_only(f.kernels());
  KernelList out;
  out.reserve(factors.size() * static_cast<std::size_t>(nt_c));
  auto emit = [&](const KernelOp& op) {
    KernelType t = KernelType::UNMQR;
    if (op.type == KernelType::TSQRT) t = KernelType::TSMQR;
    if (op.type == KernelType::TTQRT) t = KernelType::TTMQR;
    const int jbegin = economy ? std::min(op.k, nt_c) : 0;
    for (int j = jbegin; j < nt_c; ++j)
      out.push_back({t, op.row, op.piv, op.k, j});
  };
  // Q = Q_1 Q_2 ... Q_E: Q^T applies the factor kernels forward, Q applies
  // them reversed.
  if (trans == Trans::Yes) {
    for (const KernelOp& op : factors) emit(op);
  } else {
    for (auto it = factors.rbegin(); it != factors.rend(); ++it) emit(*it);
  }
  return out;
}

void execute_apply_kernel(const KernelOp& op, const QRFactors& f, Trans trans,
                          TiledMatrix& c, TileWorkspace& ws) {
  // Q and Q^T map zero columns to zero, so the kernels see only the tile
  // column's real columns (b x w views): C's padding is never touched.
  const int w = std::min(c.b(), c.n() - op.j * c.b());
  apply_op(op, f, trans,
           [&](int ti) { return c.tile(ti, op.j).block(0, 0, c.b(), w); }, ws);
}

void execute_apply_kernel(const KernelOp& op, const QRFactors& f, Trans trans,
                          MatrixView c, TileWorkspace& ws) {
  const int b = f.b();
  const int w = std::min(b, c.cols - op.j * b);
  apply_op(op, f, trans,
           [&](int ti) { return c.block(ti * b, op.j * b, b, w); }, ws);
}

Matrix build_q(const QRFactors& f) {
  TiledMatrix q(f.a().padded_m(),
                std::min(f.a().padded_m(), f.a().padded_n()), f.b());
  // Identity pattern on the element diagonal.
  for (int d = 0; d < std::min(q.padded_m(), q.padded_n()); ++d) q.set(d, d, 1.0);

  TileWorkspace ws(f.b());
  for (const KernelOp& op :
       q_apply_ops(f, Trans::No, q.nt(), /*economy=*/true))
    execute_apply_kernel(op, f, Trans::No, q, ws);
  return q.to_padded_matrix();
}

void apply_q(const QRFactors& f, Trans trans, TiledMatrix& c) {
  HQR_CHECK(c.mt() == f.mt() && c.b() == f.b(),
            "apply_q: tile row/size mismatch");
  TileWorkspace ws(f.b());
  for (const KernelOp& op : q_apply_ops(f, trans, c.nt()))
    execute_apply_kernel(op, f, trans, c, ws);
}

Matrix extract_r(const QRFactors& f) {
  return f.a().upper_trapezoid(std::min(f.m(), f.n()), f.n());
}

Matrix tile_least_squares(const Matrix& a, const Matrix& b, int tile_size,
                          const EliminationList& list) {
  HQR_CHECK(a.rows() >= a.cols(), "tile_least_squares expects m >= n");
  HQR_CHECK(b.rows() == a.rows(), "rhs row mismatch");
  QRFactors f = qr_factorize_sequential(a, tile_size, list);
  TiledMatrix c = TiledMatrix::from_matrix(b, tile_size);
  apply_q(f, Trans::Yes, c);
  Matrix qtb = c.to_matrix();
  const int n = a.cols();
  Matrix x = materialize(qtb.block(0, 0, n, b.cols()));
  Matrix r = extract_r(f);
  trsm_left(UpLo::Upper, Trans::No, Diag::NonUnit, r.view(), x.view());
  return x;
}

}  // namespace hqr
