// Tiled matrix storage: the data layout of all tile QR algorithms.
//
// An M x N element matrix is stored as an mt x nt grid of b x b tiles, each
// tile contiguous in memory (column-major within the tile). Ragged edges are
// zero-padded to a full tile: padding columns/rows are mathematically inert
// for QR (they produce tau = 0 reflectors and zero rows of R), which keeps
// every kernel a uniform b x b operation — the same simplification the
// PLASMA/DPLASMA tile layout makes when matrices divide evenly, generalized.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace hqr {

class TiledMatrix {
 public:
  TiledMatrix() = default;

  // Zero-initialized M x N element matrix with b x b tiles.
  TiledMatrix(int m, int n, int b);

  // Tiles covering `extent` elements: ceil(extent / b). The one rule for
  // mt and nt, so callers can size the tile grid without tiling anything.
  static int tile_count(int extent, int b);

  // Tiles an existing dense matrix. Conversions into and out of the tile
  // layout copy each tile's column segments: one pass over memory.
  static TiledMatrix from_matrix(const Matrix& a, int b);

  // Reassembles the dense M x N matrix (padding dropped).
  Matrix to_matrix() const;

  int m() const { return m_; }    // element rows
  int n() const { return n_; }    // element cols
  int b() const { return b_; }    // tile size
  int mt() const { return mt_; }  // tile rows
  int nt() const { return nt_; }  // tile cols

  // Mutable / read-only view of tile (ti, tj); always b x b.
  MatrixView tile(int ti, int tj);
  ConstMatrixView tile(int ti, int tj) const;

  // Padded element dimensions (mt*b, nt*b).
  int padded_m() const { return mt_ * b_; }
  int padded_n() const { return nt_ * b_; }

  // Reassembles including padding (padded_m x padded_n). Useful for checks
  // that operate on the padded system the kernels actually factor.
  Matrix to_padded_matrix() const;

  // The k x n upper trapezoid of the element matrix (entries (i, j) with
  // i <= j and i < k; zero below), with k <= m() and n <= n(). The readout
  // of an R factor held in the leading tiles.
  Matrix upper_trapezoid(int k, int n) const;

  // Element access through the tile layout (i, j in element coordinates,
  // must be within the padded dimensions).
  double at(int i, int j) const;
  void set(int i, int j, double v);

 private:
  std::size_t tile_offset(int ti, int tj) const;
  // The leading m x n elements (padding included where m, n reach it).
  Matrix leading_block(int m, int n) const;

  int m_ = 0, n_ = 0, b_ = 1, mt_ = 0, nt_ = 0;
  std::vector<double> data_;
};

}  // namespace hqr
