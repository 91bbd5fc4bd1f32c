#include "serve/batch.hpp"

#include "common/check.hpp"
#include "linalg/tiled_matrix.hpp"

namespace hqr::serve {

FusedBatch::FusedBatch(std::vector<Matrix> problems, int b, TreeChoice tree,
                       int ib)
    : problems_(std::move(problems)), b_(b), tree_(tree), ib_(ib) {
  HQR_CHECK(!problems_.empty(), "FusedBatch needs at least one problem");
  HQR_CHECK(b >= 1, "tile size must be >= 1");
  HQR_CHECK(ib >= 0 && ib <= b,
            "inner block ib=" << ib << " out of [0, " << b << "]");
  rs_.resize(problems_.size());
  // One op per problem, each on its own tile row: no two tasks share a
  // tile, so the graph has no edges.
  const int n = static_cast<int>(problems_.size());
  KernelList ops;
  ops.reserve(problems_.size());
  for (int p = 0; p < n; ++p) ops.push_back({KernelType::GEQRT, p, p, 0, -1});
  graph_ = std::make_shared<const TaskGraph>(ops, n, 1);
}

void FusedBatch::execute(std::int32_t idx, TileWorkspace& ws) {
  HQR_CHECK(idx >= 0 && static_cast<std::size_t>(idx) < size(),
            "batch task " << idx << " out of range");
  const auto p = static_cast<std::size_t>(idx);
  TiledMatrix a = TiledMatrix::from_matrix(problems_[p], b_);
  const int mt = a.mt();
  const int nt = a.nt();
  QRFactors f(std::move(a),
              expand_to_kernels(elimination_for(tree_, mt, nt), mt, nt), ib_);
  for (const KernelOp& op : f.kernels()) execute_kernel(op, f, ws);
  rs_[p] = extract_r(f);
}

const Matrix& FusedBatch::r(std::size_t p) const {
  HQR_CHECK(p < rs_.size(), "problem index " << p << " out of range");
  return rs_[p];
}

}  // namespace hqr::serve
