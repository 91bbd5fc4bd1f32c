#include "core/incremental_tsqr.hpp"

#include <algorithm>

#include "kernels/ib_kernels.hpp"

namespace hqr {

namespace {

int checked_nt(int n, int b) {
  HQR_CHECK(n >= 1 && b >= 1, "bad TSQR shape n=" << n << " b=" << b);
  return TiledMatrix::tile_count(n, b);
}

}  // namespace

IncrementalTSQR::IncrementalTSQR(int n, int b)
    : n_(n),
      b_(b),
      nt_(checked_nt(n, b)),
      ib_(default_ib(b)),
      r_tiles_(nt_ * b, n, b),
      t_scratch_(ib_, b),
      ws_(b) {}

void IncrementalTSQR::add_rows(const Matrix& block) {
  HQR_CHECK(block.cols() == n_, "block has " << block.cols()
                                             << " columns, expected " << n_);
  HQR_CHECK(block.rows() >= 1, "empty block");
  TiledMatrix incoming = TiledMatrix::from_matrix(block, b_);

  // Flat TS reduction of the incoming tiles into the running triangle: the
  // diagonal tile (k, k) of R kills tile (i, k) of the block, then the
  // trailing tiles of both rows are updated. Starting from R = 0 this also
  // handles the very first block (Householder reflectors on a zero pivot
  // column are well defined).
  for (int k = 0; k < nt_; ++k) {
    for (int i = 0; i < incoming.mt(); ++i) {
      tsqrt_ib(r_tiles_.tile(k, k), incoming.tile(i, k), t_scratch_.view(),
               ib_, ws_);
      for (int j = k + 1; j < nt_; ++j) {
        tsmqr_ib(r_tiles_.tile(k, j), incoming.tile(i, j),
                 ConstMatrixView(incoming.tile(i, k)),
                 ConstMatrixView(t_scratch_.view()), ib_, Trans::Yes, ws_);
      }
    }
  }
  rows_seen_ += block.rows();
}

Matrix IncrementalTSQR::r() const {
  const int k = static_cast<int>(std::min<long long>(rows_seen_, n_));
  return r_tiles_.upper_trapezoid(k, n_);
}

}  // namespace hqr
