// Wire payloads of the distributed runtime at ib < b and ib == b: every
// kernel type packs exactly task_output_bytes (its T as ib x b), both
// packers append at their exact size with one allocation, and replaying
// the packed outputs onto a fresh replica, task by task or as the
// end-of-run gather, reproduces the factorization bit for bit.
#include "distrun/payload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <tuple>

#include "common/rng.hpp"
#include "dag/partition.hpp"
#include "linalg/random_matrix.hpp"

namespace hqr {
namespace {

// 3 x 2 tiles: a TS kill, a TT kill and a second-panel TS kill, so the
// kernel list holds all six kernel types.
const EliminationList kList = {
    {1, 0, 0, /*ts=*/true}, {2, 0, 0, /*ts=*/false}, {2, 1, 1, /*ts=*/true}};

QRFactors fresh(const Matrix& a, int b, int ib) {
  TiledMatrix tiled = TiledMatrix::from_matrix(a, b);
  KernelList kernels = expand_to_kernels(kList, tiled.mt(), tiled.nt());
  return QRFactors(std::move(tiled), std::move(kernels), ib);
}

bool same_view(ConstMatrixView x, ConstMatrixView y) {
  if (x.rows != y.rows || x.cols != y.cols) return false;
  for (int j = 0; j < x.cols; ++j)
    if (std::memcmp(x.data + static_cast<std::size_t>(j) * x.ld,
                    y.data + static_cast<std::size_t>(j) * y.ld,
                    sizeof(double) * static_cast<std::size_t>(x.rows)) != 0)
      return false;
  return true;
}

bool same_factors(const QRFactors& x, const QRFactors& y) {
  for (int i = 0; i < x.mt(); ++i)
    for (int j = 0; j < x.nt(); ++j)
      if (!same_view(x.a().tile(i, j), y.a().tile(i, j))) return false;
  for (const KernelOp& op : x.kernels()) {
    if (op.type == KernelType::GEQRT) {
      if (!same_view(x.t_geqrt(op.row, op.k), y.t_geqrt(op.row, op.k)))
        return false;
    } else if (is_factor_kernel(op.type)) {
      if (!same_view(x.t_pencil(op.row, op.k), y.t_pencil(op.row, op.k)))
        return false;
    }
  }
  return true;
}

// (b, ib)
class PayloadRoundTrip : public ::testing::TestWithParam<std::pair<int, int>> {
 protected:
  void SetUp() override {
    std::tie(b_, ib_) = GetParam();
    Rng rng(static_cast<std::uint64_t>(b_) * 31 + ib_);
    a_ = random_gaussian(3 * b_, 2 * b_, rng);
  }
  int b_ = 0, ib_ = 0;
  Matrix a_;
};

TEST_P(PayloadRoundTrip, EveryKernelShipsItsExactRegions) {
  QRFactors src = fresh(a_, b_, ib_);
  QRFactors dst = fresh(a_, b_, ib_);
  ASSERT_EQ(src.ib(), ib_);
  distrun::RegionGates gates(src.mt(), src.nt());
  TileWorkspace ws(b_);
  std::array<int, kKernelTypeCount> seen{};
  std::vector<std::uint8_t> buf;
  for (std::int32_t t = 0; t < static_cast<std::int32_t>(src.kernels().size());
       ++t) {
    const KernelOp& op = src.kernels()[static_cast<std::size_t>(t)];
    execute_kernel(op, src, ws);
    buf.clear();
    distrun::pack_task_output(op, src, buf);
    EXPECT_EQ(buf.size(), distrun::task_output_bytes(op, b_, ib_))
        << kernel_name(op.type);
    distrun::apply_task_output(op, dst, buf, gates, t);
    ++seen[static_cast<std::size_t>(op.type)];
  }
  for (int k = 0; k < kKernelTypeCount; ++k)
    EXPECT_GT(seen[static_cast<std::size_t>(k)], 0)
        << kernel_name(static_cast<KernelType>(k));
  EXPECT_TRUE(same_factors(src, dst));
}

TEST_P(PayloadRoundTrip, GatherReassemblesTheFactorization) {
  QRFactors src = fresh(a_, b_, ib_);
  TileWorkspace ws(b_);
  for (const KernelOp& op : src.kernels()) execute_kernel(op, src, ws);
  const TaskGraph graph(src.kernels(), src.mt(), src.nt());
  const CommPlan plan(graph, Distribution::cyclic_1d(2),
                      BroadcastKind::Binomial);
  QRFactors dst = fresh(a_, b_, ib_);
  for (int rank = 0; rank < 2; ++rank) {
    std::vector<std::uint8_t> g;
    distrun::pack_gather(graph, plan, rank, src, g);
    distrun::apply_gather(graph, plan, rank, g, dst);
  }
  EXPECT_TRUE(same_factors(src, dst));
}

// Both packers append after what `out` already holds (a frame's header
// room here) and grow it once, by exactly the payload's computed size:
// reserve(n) on a vector allocates exactly n, so a miscount shows as a
// capacity above the final size (too much) or a regrowth (too little).
TEST_P(PayloadRoundTrip, PackingAppendsItsExactSizeAfterAPrefix) {
  QRFactors src = fresh(a_, b_, ib_);
  TileWorkspace ws(b_);
  const std::vector<std::uint8_t> prefix(32, 0xa5);
  const auto expect_append = [&](std::size_t bytes, const auto& pack) {
    std::vector<std::uint8_t> alone;
    pack(alone);
    std::vector<std::uint8_t> out = prefix;
    pack(out);
    EXPECT_EQ(out.size(), prefix.size() + bytes);
    EXPECT_EQ(out.capacity(), out.size());
    EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), out.begin()));
    EXPECT_TRUE(std::equal(alone.begin(), alone.end(),
                           out.begin() + static_cast<std::ptrdiff_t>(
                                             prefix.size())));
  };
  for (const KernelOp& op : src.kernels()) {
    execute_kernel(op, src, ws);
    expect_append(distrun::task_output_bytes(op, b_, ib_),
                  [&](std::vector<std::uint8_t>& out) {
                    distrun::pack_task_output(op, src, out);
                  });
  }
  const TaskGraph graph(src.kernels(), src.mt(), src.nt());
  const CommPlan plan(graph, Distribution::cyclic_1d(2),
                      BroadcastKind::Binomial);
  for (int rank = 0; rank < 2; ++rank)
    expect_append(distrun::gather_bytes(graph, plan, rank, src),
                  [&](std::vector<std::uint8_t>& out) {
                    distrun::pack_gather(graph, plan, rank, src, out);
                  });
}

TEST(Payload, TSizesFollowTheInnerBlock) {
  const KernelOp geqrt{KernelType::GEQRT, 0, 0, 0, -1};
  const KernelOp tsqrt{KernelType::TSQRT, 1, 0, 0, -1};
  const KernelOp tsmqr{KernelType::TSMQR, 1, 0, 0, 1};
  // b = 128: a tile is 128 KiB; an ib = 32 T is a quarter of that.
  EXPECT_EQ(distrun::task_output_bytes(geqrt, 128, 128), 2u * 128 * 128 * 8);
  EXPECT_EQ(distrun::task_output_bytes(geqrt, 128, 32),
            (128u * 128 + 32 * 128) * 8);
  EXPECT_EQ(distrun::task_output_bytes(tsqrt, 128, 32) -
                distrun::task_output_bytes(tsqrt, 128, 16),
            16u * 128 * 8);
  // Update kernels ship tiles only.
  EXPECT_EQ(distrun::task_output_bytes(tsmqr, 128, 32),
            distrun::task_output_bytes(tsmqr, 128, 128));
}

INSTANTIATE_TEST_SUITE_P(InnerBlocks, PayloadRoundTrip,
                         ::testing::Values(std::pair{8, 3}, std::pair{8, 8},
                                           std::pair{32, 8},
                                           std::pair{32, 32}));

}  // namespace
}  // namespace hqr
