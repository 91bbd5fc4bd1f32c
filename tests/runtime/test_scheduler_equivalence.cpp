// Schedule-independence tests: kernels on dependent tiles are ordered by
// the task graph while independent kernels touch disjoint tiles, so every
// valid schedule produces bit-identical factors. The parallel executor must
// therefore reproduce qr_factorize_sequential exactly — every factored tile
// and every T block — for any thread count and inner block size.
#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <tuple>

#include "common/rng.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "trees/hqr_tree.hpp"
#include "trees/single_level.hpp"

namespace hqr {
namespace {

constexpr double kTol = 1e-12;

void expect_exact(const Matrix& a0, const QRFactors& f) {
  Matrix q = build_q(f);
  EXPECT_LT(orthogonality_error(q.view()), kTol);
  Matrix qs = materialize(q.block(0, 0, a0.rows(), f.n()));
  EXPECT_LT(factorization_residual(a0.view(), qs.view(), extract_r(f).view()),
            kTol);
}

bool same_bits(ConstMatrixView x, ConstMatrixView y) {
  if (x.rows != y.rows || x.cols != y.cols) return false;
  for (int j = 0; j < x.cols; ++j)
    if (std::memcmp(x.data + static_cast<std::size_t>(j) * x.ld,
                    y.data + static_cast<std::size_t>(j) * y.ld,
                    static_cast<std::size_t>(x.rows) * sizeof(double)) != 0)
      return false;
  return true;
}

// Every factored tile and every T block of `par` equals `seq` bitwise.
void expect_same_factors(const QRFactors& par, const QRFactors& seq) {
  for (int i = 0; i < seq.mt(); ++i)
    for (int j = 0; j < seq.nt(); ++j)
      EXPECT_TRUE(same_bits(par.a().tile(i, j), seq.a().tile(i, j)))
          << "tile (" << i << ", " << j << ")";
  for (int k = 0; k < std::min(seq.mt(), seq.nt()); ++k)
    for (int i = 0; i < seq.mt(); ++i) {
      EXPECT_TRUE(same_bits(par.t_geqrt(i, k), seq.t_geqrt(i, k)))
          << "t_geqrt (" << i << ", " << k << ")";
      EXPECT_TRUE(same_bits(par.t_pencil(i, k), seq.t_pencil(i, k)))
          << "t_pencil (" << i << ", " << k << ")";
    }
}

// (threads, ib, wide): wide picks the tiny-tile, wide-fanout input, whose
// many more ready tasks than workers keep every worker's pick contended.
class SchedEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(SchedEquivalence, ParallelMatchesSequentialBitwise) {
  auto [threads, ib, wide] = GetParam();
  Rng rng(wide ? 55 : 101 + threads + ib);
  const Matrix a0 =
      wide ? random_gaussian(120, 60, rng) : random_gaussian(48, 28, rng);
  HqrConfig cfg{3, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
  auto list = wide ? greedy_global_list(30, 15).list
                   : hqr_elimination_list(12, 7, cfg);

  ExecutorOptions opts{.threads = threads, .ib = ib};
  RunStats stats;
  const QRFactors par = qr_factorize_parallel(a0, 4, list, opts, &stats);
  const QRFactors seq = qr_factorize_sequential(a0, 4, list, ib);
  long long ran = 0;
  for (long long t : stats.tasks_per_thread) ran += t;
  EXPECT_EQ(ran, stats.total_tasks);

  expect_same_factors(par, seq);
  if (wide) expect_exact(a0, par);
}

INSTANTIATE_TEST_SUITE_P(ThreadsAndIb, SchedEquivalence,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(0, 2),
                                            ::testing::Values(false)));
INSTANTIATE_TEST_SUITE_P(WideFanoutTinyTiles, SchedEquivalence,
                         ::testing::Values(std::make_tuple(8, 0, true)));

TEST(SchedulerEquivalence, EightWorkerRepeatedRunsAreNumericallyIdentical) {
  // Eight workers interleave differently on every run; the DAG still fixes
  // the result.
  Rng rng(77);
  Matrix a0 = random_gaussian(40, 20, rng);
  HqrConfig cfg{2, 2, TreeKind::Binary, TreeKind::Flat, true};
  auto list = hqr_elimination_list(10, 5, cfg);
  ExecutorOptions opts{.threads = 8};
  Matrix r_first = extract_r(qr_factorize_parallel(a0, 4, list, opts));
  for (int rep = 0; rep < 5; ++rep) {
    Matrix r = extract_r(qr_factorize_parallel(a0, 4, list, opts));
    EXPECT_EQ(max_abs_diff(r_first.view(), r.view()), 0.0) << "rep " << rep;
  }
}

// Seeded schedule perturbation: before its kernel, every task sleeps a
// delay drawn from the seed (0-200 us), so tasks finish, and their
// successors become ready, in orders the host's own timing rarely
// produces. Whatever order results, the factors keep the sequential bits.
class SeededTaskDelays : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededTaskDelays, PoolScheduleKeepsTheSequentialBits) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("perturbation seed " + std::to_string(seed));
  Rng rng(91);
  const Matrix a0 = random_gaussian(48, 28, rng);
  HqrConfig cfg{3, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
  const EliminationList list = hqr_elimination_list(12, 7, cfg);
  constexpr int kIb = 2;
  const QRFactors seq = qr_factorize_sequential(a0, 4, list, kIb);

  TiledMatrix tiled = TiledMatrix::from_matrix(a0, 4);
  KernelList kernels = expand_to_kernels(list, tiled.mt(), tiled.nt());
  const auto graph =
      std::make_shared<const TaskGraph>(kernels, tiled.mt(), tiled.nt());
  QRFactors par(std::move(tiled), std::move(kernels), kIb);
  Rng delays_rng(seed);
  std::vector<int> delay_us(static_cast<std::size_t>(graph->size()));
  for (int& d : delay_us) d = static_cast<int>(delays_rng.uniform() * 200.0);

  DagPoolOptions opts;
  opts.threads = 4;
  DagPool pool(opts);
  const DagId id = pool.submit(
      graph, 4, [&](std::int32_t idx, int, TileWorkspace& ws) {
        const auto i = static_cast<std::size_t>(idx);
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us[i]));
        execute_kernel(par.kernels()[i], par, ws);
      });
  EXPECT_TRUE(pool.wait(id));
  expect_same_factors(par, seq);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTaskDelays,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace hqr
