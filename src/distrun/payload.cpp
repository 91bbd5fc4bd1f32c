#include "distrun/payload.hpp"

#include "common/check.hpp"
#include "net/message.hpp"

namespace hqr::distrun {
namespace {

// Column-major full-tile copy (tiles are contiguous, but stay ld-correct).
void pack_full(ConstMatrixView v, net::PayloadWriter& w) {
  if (v.ld == v.rows) {
    w.f64(v.data, static_cast<std::size_t>(v.rows) * v.cols);
    return;
  }
  for (int j = 0; j < v.cols; ++j)
    w.f64(v.data + static_cast<std::size_t>(j) * v.ld, v.rows);
}

void apply_full(net::PayloadReader& r, MatrixView v) {
  if (v.ld == v.rows) {
    r.f64(v.data, static_cast<std::size_t>(v.rows) * v.cols);
    return;
  }
  for (int j = 0; j < v.cols; ++j)
    r.f64(v.data + static_cast<std::size_t>(j) * v.ld, v.rows);
}

// Upper triangle including the diagonal, column by column.
void pack_upper(ConstMatrixView v, net::PayloadWriter& w) {
  for (int j = 0; j < v.cols; ++j)
    w.f64(v.data + static_cast<std::size_t>(j) * v.ld, j + 1);
}

void apply_upper(net::PayloadReader& r, MatrixView v) {
  for (int j = 0; j < v.cols; ++j)
    r.f64(v.data + static_cast<std::size_t>(j) * v.ld, j + 1);
}

// Strict lower triangle (the Householder-vector half), column by column.
void pack_strict_lower(ConstMatrixView v, net::PayloadWriter& w) {
  for (int j = 0; j + 1 < v.cols; ++j)
    w.f64(v.data + static_cast<std::size_t>(j) * v.ld + j + 1,
          v.rows - j - 1);
}

void apply_strict_lower(net::PayloadReader& r, MatrixView v) {
  for (int j = 0; j + 1 < v.cols; ++j)
    r.f64(v.data + static_cast<std::size_t>(j) * v.ld + j + 1,
          v.rows - j - 1);
}

// A full-tile payload applied per region: column j splits at the diagonal
// into upper rows [0, j] and strict-lower rows (j, rows). The two halves
// can be gated differently — TTQRT rewrites only U of a tile GEQRT wrote
// whole, so a stale GEQRT frame may still own L while having lost U.
void apply_full_gated(net::PayloadReader& r, MatrixView v, bool keep_upper,
                      bool keep_lower) {
  if (keep_upper && keep_lower) {
    apply_full(r, v);
    return;
  }
  for (int j = 0; j < v.cols; ++j) {
    double* col = v.data + static_cast<std::size_t>(j) * v.ld;
    const std::size_t nu =
        static_cast<std::size_t>(j + 1 < v.rows ? j + 1 : v.rows);
    if (keep_upper)
      r.f64(col, nu);
    else
      r.skip(nu * sizeof(double));
    const std::size_t nl = static_cast<std::size_t>(v.rows) - nu;
    if (keep_lower)
      r.f64(col + nu, nl);
    else
      r.skip(nl * sizeof(double));
  }
}

void apply_upper_gated(net::PayloadReader& r, MatrixView v, bool keep) {
  if (keep) {
    apply_upper(r, v);
    return;
  }
  for (int j = 0; j < v.cols; ++j)
    r.skip(static_cast<std::size_t>(j + 1) * sizeof(double));
}

// The write set of a kernel over tile regions, same region indexing as the
// task graph's dependency inference: 2*(j*mt + i) for the upper half of
// tile (i, j) (incl. diagonal), +1 for the strict lower half. Must stay in
// sync with for_each_access in dag/task_graph.cpp — a region written there
// but not shipped here would desynchronize the replicas.
template <typename Fn>
void for_each_write(const KernelOp& op, int mt, Fn&& fn) {
  auto upper = [mt](int i, int j) {
    return 2 * (static_cast<std::int64_t>(j) * mt + i);
  };
  auto lower = [mt](int i, int j) {
    return 2 * (static_cast<std::int64_t>(j) * mt + i) + 1;
  };
  switch (op.type) {
    case KernelType::GEQRT:
      fn(upper(op.row, op.k));
      fn(lower(op.row, op.k));
      break;
    case KernelType::UNMQR:
      fn(upper(op.row, op.j));
      fn(lower(op.row, op.j));
      break;
    case KernelType::TSQRT:
      fn(upper(op.piv, op.k));
      fn(upper(op.row, op.k));
      fn(lower(op.row, op.k));
      break;
    case KernelType::TTQRT:
      fn(upper(op.piv, op.k));
      fn(upper(op.row, op.k));
      break;
    case KernelType::TSMQR:
    case KernelType::TTMQR:
      fn(upper(op.piv, op.j));
      fn(lower(op.piv, op.j));
      fn(upper(op.row, op.j));
      fn(lower(op.row, op.j));
      break;
  }
}

}  // namespace

std::size_t task_output_bytes(const KernelOp& op, int b, int ib) {
  const std::size_t full = static_cast<std::size_t>(b) * b;
  const std::size_t upper = static_cast<std::size_t>(b) * (b + 1) / 2;
  const std::size_t t = static_cast<std::size_t>(ib) * b;
  std::size_t doubles = 0;
  switch (op.type) {
    case KernelType::GEQRT:
      doubles = full + t;  // A(row,k) + T
      break;
    case KernelType::UNMQR:
      doubles = full;  // A(row,j)
      break;
    case KernelType::TSQRT:
      doubles = upper + full + t;  // R1, V2 tile, T
      break;
    case KernelType::TTQRT:
      doubles = upper + upper + t;  // R1, triangular V2, T
      break;
    case KernelType::TSMQR:
    case KernelType::TTMQR:
      doubles = full + full;  // A(piv,j) + A(row,j)
      break;
  }
  return doubles * sizeof(double);
}

void pack_task_output(const KernelOp& op, const QRFactors& f,
                      std::vector<std::uint8_t>& out) {
  out.reserve(out.size() + task_output_bytes(op, f.b(), f.ib()));
  net::PayloadWriter w(out);
  const TiledMatrix& a = f.a();
  switch (op.type) {
    case KernelType::GEQRT:
      pack_full(a.tile(op.row, op.k), w);
      pack_full(f.t_geqrt(op.row, op.k), w);
      break;
    case KernelType::UNMQR:
      pack_full(a.tile(op.row, op.j), w);
      break;
    case KernelType::TSQRT:
      pack_upper(a.tile(op.piv, op.k), w);
      pack_full(a.tile(op.row, op.k), w);
      pack_full(f.t_pencil(op.row, op.k), w);
      break;
    case KernelType::TTQRT:
      pack_upper(a.tile(op.piv, op.k), w);
      pack_upper(a.tile(op.row, op.k), w);
      pack_full(f.t_pencil(op.row, op.k), w);
      break;
    case KernelType::TSMQR:
    case KernelType::TTMQR:
      pack_full(a.tile(op.piv, op.j), w);
      pack_full(a.tile(op.row, op.j), w);
      break;
  }
}

void RegionGates::bump_writes(const KernelOp& op, std::int32_t task) {
  for_each_write(op, mt_, [&](std::int64_t reg) { advance(reg, task); });
}

void apply_task_output(const KernelOp& op, QRFactors& f,
                       const std::vector<std::uint8_t>& payload,
                       RegionGates& gates, std::int32_t task) {
  HQR_CHECK(payload.size() == task_output_bytes(op, f.b(), f.ib()),
            "payload size mismatch for " << kernel_name(op.type) << ": got "
                                         << payload.size() << " bytes");
  net::PayloadReader r(payload);
  TiledMatrix& a = f.a();
  const int mt = f.mt();
  const auto upper = [&](int i, int j) {
    return gates.advance(2 * (static_cast<std::int64_t>(j) * mt + i), task);
  };
  const auto lower = [&](int i, int j) {
    return gates.advance(2 * (static_cast<std::int64_t>(j) * mt + i) + 1,
                         task);
  };
  switch (op.type) {
    case KernelType::GEQRT: {
      const bool ku = upper(op.row, op.k);
      const bool kl = lower(op.row, op.k);
      apply_full_gated(r, a.tile(op.row, op.k), ku, kl);
      apply_full(r, f.t_geqrt(op.row, op.k));
      break;
    }
    case KernelType::UNMQR: {
      const bool ku = upper(op.row, op.j);
      const bool kl = lower(op.row, op.j);
      apply_full_gated(r, a.tile(op.row, op.j), ku, kl);
      break;
    }
    case KernelType::TSQRT: {
      apply_upper_gated(r, a.tile(op.piv, op.k), upper(op.piv, op.k));
      const bool ku = upper(op.row, op.k);
      const bool kl = lower(op.row, op.k);
      apply_full_gated(r, a.tile(op.row, op.k), ku, kl);
      apply_full(r, f.t_pencil(op.row, op.k));
      break;
    }
    case KernelType::TTQRT: {
      apply_upper_gated(r, a.tile(op.piv, op.k), upper(op.piv, op.k));
      apply_upper_gated(r, a.tile(op.row, op.k), upper(op.row, op.k));
      apply_full(r, f.t_pencil(op.row, op.k));
      break;
    }
    case KernelType::TSMQR:
    case KernelType::TTMQR: {
      const bool ku1 = upper(op.piv, op.j);
      const bool kl1 = lower(op.piv, op.j);
      apply_full_gated(r, a.tile(op.piv, op.j), ku1, kl1);
      const bool ku2 = upper(op.row, op.j);
      const bool kl2 = lower(op.row, op.j);
      apply_full_gated(r, a.tile(op.row, op.j), ku2, kl2);
      break;
    }
  }
  HQR_CHECK(r.remaining() == 0, "trailing bytes in payload");
}

namespace {

// last_writer[region] = highest-index task writing the region, -1 if the
// region keeps its input value. Deterministic, so every rank agrees on who
// contributes what to the gather.
std::vector<std::int32_t> last_writers(const TaskGraph& graph, int mt,
                                       int nt) {
  std::vector<std::int32_t> lw(2 * static_cast<std::size_t>(mt) * nt, -1);
  for (std::int32_t t = 0; t < graph.size(); ++t)
    for_each_write(graph.op(t), mt,
                   [&](std::int64_t reg) { lw[static_cast<std::size_t>(reg)] = t; });
  return lw;
}

// Visits rank 0's gather schedule for `rank`: every final A region and
// every T factor the rank produced, in one canonical order.
template <typename RegionFn, typename TFn>
void for_each_contribution(const TaskGraph& graph, const CommPlan& plan,
                           int rank, int mt, int nt, RegionFn&& on_region,
                           TFn&& on_t) {
  const std::vector<std::int32_t> lw = last_writers(graph, mt, nt);
  for (std::size_t reg = 0; reg < lw.size(); ++reg) {
    if (lw[reg] < 0 || plan.node_of(lw[reg]) != rank) continue;
    const std::int64_t tile = static_cast<std::int64_t>(reg) / 2;
    on_region(static_cast<int>(tile % mt), static_cast<int>(tile / mt),
              /*upper=*/reg % 2 == 0);
  }
  for (std::int32_t t = 0; t < graph.size(); ++t) {
    if (plan.node_of(t) != rank) continue;
    const KernelOp& op = graph.op(t);
    if (op.type == KernelType::GEQRT || op.type == KernelType::TSQRT ||
        op.type == KernelType::TTQRT)
      on_t(op);
  }
}

}  // namespace

std::size_t gather_bytes(const TaskGraph& graph, const CommPlan& plan,
                         int rank, const QRFactors& f) {
  const TiledMatrix& a = f.a();
  std::size_t doubles = 0;
  for_each_contribution(
      graph, plan, rank, f.mt(), f.nt(),
      [&](int i, int j, bool upper) {
        // Column lengths of pack_upper and pack_strict_lower.
        const ConstMatrixView v = a.tile(i, j);
        for (int c = 0; c < v.cols; ++c) {
          if (upper)
            doubles += static_cast<std::size_t>(c + 1);
          else if (c + 1 < v.cols)
            doubles += static_cast<std::size_t>(v.rows - c - 1);
        }
      },
      [&](const KernelOp& op) {
        const ConstMatrixView t = op.type == KernelType::GEQRT
                                      ? f.t_geqrt(op.row, op.k)
                                      : f.t_pencil(op.row, op.k);
        doubles += static_cast<std::size_t>(t.rows) * t.cols;
      });
  return doubles * sizeof(double);
}

void pack_gather(const TaskGraph& graph, const CommPlan& plan, int rank,
                 const QRFactors& f, std::vector<std::uint8_t>& out) {
  out.reserve(out.size() + gather_bytes(graph, plan, rank, f));
  net::PayloadWriter w(out);
  const TiledMatrix& a = f.a();
  for_each_contribution(
      graph, plan, rank, f.mt(), f.nt(),
      [&](int i, int j, bool upper) {
        if (upper)
          pack_upper(a.tile(i, j), w);
        else
          pack_strict_lower(a.tile(i, j), w);
      },
      [&](const KernelOp& op) {
        if (op.type == KernelType::GEQRT)
          pack_full(f.t_geqrt(op.row, op.k), w);
        else
          pack_full(f.t_pencil(op.row, op.k), w);
      });
}

void apply_gather(const TaskGraph& graph, const CommPlan& plan, int rank,
                  const std::vector<std::uint8_t>& payload, QRFactors& f) {
  net::PayloadReader r(payload);
  TiledMatrix& a = f.a();
  for_each_contribution(
      graph, plan, rank, f.mt(), f.nt(),
      [&](int i, int j, bool upper) {
        if (upper)
          apply_upper(r, a.tile(i, j));
        else
          apply_strict_lower(r, a.tile(i, j));
      },
      [&](const KernelOp& op) {
        if (op.type == KernelType::GEQRT)
          apply_full(r, f.t_geqrt(op.row, op.k));
        else
          apply_full(r, f.t_pencil(op.row, op.k));
      });
  HQR_CHECK(r.remaining() == 0,
            "gather payload from rank " << rank << " has trailing bytes");
}

}  // namespace hqr::distrun
