// Schedule-independence tests: kernels on dependent tiles are ordered by
// the task graph while independent kernels touch disjoint tiles, so every
// valid schedule produces bit-identical factors. The parallel executor must
// therefore reproduce qr_factorize_sequential exactly — every factored tile
// and every T block — for any thread count and inner block size.
#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
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

// (threads, ib)
class SchedEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SchedEquivalence, ParallelMatchesSequentialBitwise) {
  auto [threads, ib] = GetParam();
  Rng rng(101 + threads + ib);
  Matrix a0 = random_gaussian(48, 28, rng);
  HqrConfig cfg{3, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
  auto list = hqr_elimination_list(12, 7, cfg);

  ExecutorOptions opts{.threads = threads, .ib = ib};
  RunStats stats;
  const QRFactors par = qr_factorize_parallel(a0, 4, list, opts, &stats);
  const QRFactors seq = qr_factorize_sequential(a0, 4, list, ib);
  EXPECT_EQ(stats.reuse_hits + stats.queue_pops, stats.total_tasks);

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

INSTANTIATE_TEST_SUITE_P(ThreadsAndIb, SchedEquivalence,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(0, 2)));

TEST(SchedulerEquivalence, WideFanoutTinyTilesExercisesStealing) {
  // Tiny tiles and a wide-fanout elimination order create many more ready
  // tasks than one deque's releases can absorb locally, so idle workers
  // must actually steal. Retried because on a heavily loaded single-core
  // host one worker can in principle drain a short run alone.
  Rng rng(55);
  Matrix a0 = random_gaussian(120, 60, rng);
  auto list = greedy_global_list(30, 15).list;
  RunStats stats;
  bool stole = false;
  for (int attempt = 0; attempt < 10 && !stole; ++attempt) {
    ExecutorOptions opts{.threads = 8};
    QRFactors f = qr_factorize_parallel(a0, 4, list, opts, &stats);
    EXPECT_EQ(stats.reuse_hits + stats.queue_pops, stats.total_tasks);
    EXPECT_EQ(stats.local_hits + stats.steals + stats.overflow_pops,
              stats.queue_pops);
    if (attempt == 0) expect_exact(a0, f);
    stole = stats.steals > 0;
  }
  EXPECT_TRUE(stole) << "no steals observed across 10 eight-worker runs";
  EXPECT_GT(stats.local_hits, 0);
}

TEST(SchedulerEquivalence, StealRepeatedRunsAreNumericallyIdentical) {
  // Stealing randomizes the interleaving; the DAG still fixes the result.
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

}  // namespace
}  // namespace hqr
