#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <map>
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

// (threads, ib, flat_ts): flat_ts picks the all-TS flat tree, whose panel
// kills form one chain with the widest update fan-out, instead of HQR's
// mixed TS/TT hierarchy.
class ExecutorConfigs
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(ExecutorConfigs, ParallelFactorizationIsExact) {
  auto [threads, ib, flat_ts] = GetParam();
  Rng rng(42 + threads);
  Matrix a0 = random_gaussian(36, 20, rng);
  HqrConfig cfg{3, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
  const EliminationList list =
      flat_ts ? flat_ts_list(9, 5) : hqr_elimination_list(9, 5, cfg);
  ExecutorOptions opts{.threads = threads, .ib = ib};
  RunStats stats;
  QRFactors f = qr_factorize_parallel(a0, 4, list, opts, &stats);
  expect_exact(a0, f);
  EXPECT_EQ(stats.threads, threads);
  long long total = 0;
  for (long long t : stats.tasks_per_thread) total += t;
  EXPECT_EQ(total, stats.total_tasks);
  EXPECT_EQ(stats.reuse_hits + stats.queue_pops, stats.total_tasks);
}

INSTANTIATE_TEST_SUITE_P(ThreadsIbAndTree, ExecutorConfigs,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(0, 2),
                                            ::testing::Bool()));

TEST(Executor, MatchesSequentialResultBitwiseSingleThread) {
  // One worker with priority ordering executes a deterministic schedule;
  // R must match the sequential driver exactly (same kernels, same order up
  // to commutativity of disjoint tiles -> identical floating point).
  Rng rng(7);
  Matrix a0 = random_gaussian(24, 12, rng);
  auto list = greedy_global_list(6, 3).list;
  QRFactors seq = qr_factorize_sequential(a0, 4, list);
  ExecutorOptions opts;
  QRFactors par = qr_factorize_parallel(a0, 4, list, opts);
  Matrix rs = extract_r(seq);
  Matrix rp = extract_r(par);
  EXPECT_EQ(max_abs_diff(rs.view(), rp.view()), 0.0);
}

TEST(Executor, ManyThreadsMoreThanTasks) {
  Rng rng(9);
  Matrix a0 = random_gaussian(4, 4, rng);
  ExecutorOptions opts{.threads = 16};
  QRFactors f = qr_factorize_parallel(a0, 4, flat_ts_list(1, 1), opts);
  expect_exact(a0, f);
}

TEST(Executor, RepeatedRunsAreNumericallyIdentical) {
  // The DAG fixes the computation regardless of interleaving: every run
  // must produce the same R (kernels on disjoint tiles commute exactly).
  Rng rng(11);
  Matrix a0 = random_gaussian(32, 16, rng);
  HqrConfig cfg{2, 2, TreeKind::Binary, TreeKind::Flat, true};
  auto list = hqr_elimination_list(8, 4, cfg);
  ExecutorOptions opts{.threads = 4};
  Matrix r_first = extract_r(qr_factorize_parallel(a0, 4, list, opts));
  for (int rep = 0; rep < 5; ++rep) {
    Matrix r = extract_r(qr_factorize_parallel(a0, 4, list, opts));
    EXPECT_EQ(max_abs_diff(r_first.view(), r.view()), 0.0) << "rep " << rep;
  }
}

TEST(Executor, InvalidThreadCountThrows) {
  Rng rng(13);
  Matrix a0 = random_gaussian(8, 8, rng);
  ExecutorOptions opts{.threads = 0};
  EXPECT_THROW(qr_factorize_parallel(a0, 4, flat_ts_list(2, 2), opts), Error);
}

TEST(Executor, StatsTraceAndMetricsAgreeOnTaskCounts) {
  Rng rng(19);
  Matrix a0 = random_gaussian(48, 24, rng);
  ExecutorOptions opts{.threads = 4};
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  opts.trace = &trace;
  opts.metrics = &metrics;
  RunStats stats;
  QRFactors f = qr_factorize_parallel(
      a0, 4, greedy_global_list(12, 6).list, opts, &stats);
  expect_exact(a0, f);

  // Per-thread counts account for every task...
  long long per_thread = 0;
  for (long long t : stats.tasks_per_thread) per_thread += t;
  EXPECT_EQ(per_thread, stats.total_tasks);
  // ...as do the per-kernel counts, the trace, and the metrics registry.
  long long per_kernel = 0;
  for (long long t : stats.tasks_by_kernel) per_kernel += t;
  EXPECT_EQ(per_kernel, stats.total_tasks);
  EXPECT_EQ(static_cast<long long>(trace.size()), stats.total_tasks);
  EXPECT_EQ(metrics.counter("exec.tasks").value(), stats.total_tasks);
  EXPECT_EQ(stats.reuse_hits + stats.queue_pops, stats.total_tasks);
  // Queue pops split exactly into the three acquisition paths, and the
  // metrics registry mirrors them.
  EXPECT_EQ(stats.local_hits + stats.steals + stats.overflow_pops,
            stats.queue_pops);
  EXPECT_EQ(metrics.counter("exec.local_hits").value(), stats.local_hits);
  EXPECT_EQ(metrics.counter("exec.steals").value(), stats.steals);
  EXPECT_EQ(metrics.counter("exec.overflow_pops").value(),
            stats.overflow_pops);

  // Observed run fills the timing breakdowns.
  ASSERT_EQ(stats.busy_seconds_per_thread.size(), 4u);
  double busy = 0.0;
  for (double s : stats.busy_seconds_per_thread) busy += s;
  double by_kernel = 0.0;
  for (double s : stats.seconds_by_kernel) by_kernel += s;
  EXPECT_NEAR(busy, by_kernel, 1e-9);
  EXPECT_GT(busy, 0.0);

  // Trace events never overlap within a worker lane.
  auto events = trace.sorted_events();
  std::map<int, double> cursor;
  for (const auto& e : events) {
    auto it = cursor.find(e.lane);
    if (it != cursor.end()) {
      EXPECT_GE(e.start, it->second - 1e-12);
    }
    cursor[e.lane] = e.end;
  }
}

TEST(Executor, UnobservedRunSkipsTimingBreakdowns) {
  Rng rng(23);
  Matrix a0 = random_gaussian(16, 8, rng);
  ExecutorOptions opts{.threads = 2};
  RunStats stats;
  qr_factorize_parallel(a0, 4, flat_ts_list(4, 2), opts, &stats);
  EXPECT_TRUE(stats.busy_seconds_per_thread.empty());
  EXPECT_TRUE(stats.idle_seconds_per_thread.empty());
  EXPECT_TRUE(stats.terminal_wait_seconds_per_thread.empty());
  EXPECT_GT(stats.total_tasks, 0);
}

TEST(Executor, OneThreadTracedRunReportsNoIdle) {
  // A single worker never waits for ready work: every acquire finds a task
  // (or termination) immediately, so idle must stay ~zero. The terminal
  // acquire is reported separately, never as idle.
  Rng rng(31);
  Matrix a0 = random_gaussian(32, 16, rng);
  ExecutorOptions opts;
  obs::TraceRecorder trace;
  opts.trace = &trace;
  RunStats stats;
  qr_factorize_parallel(a0, 4, greedy_global_list(8, 4).list, opts, &stats);
  ASSERT_EQ(stats.idle_seconds_per_thread.size(), 1u);
  EXPECT_LT(stats.idle_seconds_per_thread[0], 5e-3);
  ASSERT_EQ(stats.terminal_wait_seconds_per_thread.size(), 1u);
}

TEST(Executor, ShutdownWaitNotBookedAsIdle) {
  // One task, eight workers: seven of them only ever see the termination
  // barrier. That wait must land in terminal_wait_seconds_per_thread, not
  // inflate the per-lane idle (stall) numbers.
  Rng rng(33);
  Matrix a0 = random_gaussian(4, 4, rng);
  ExecutorOptions opts{.threads = 8};
  obs::TraceRecorder trace;
  opts.trace = &trace;
  RunStats stats;
  QRFactors f = qr_factorize_parallel(a0, 4, flat_ts_list(1, 1), opts, &stats);
  expect_exact(a0, f);
  EXPECT_EQ(stats.total_tasks, 1);
  double idle = 0.0;
  for (double s : stats.idle_seconds_per_thread) idle += s;
  EXPECT_LT(idle, 5e-3);
  ASSERT_EQ(stats.terminal_wait_seconds_per_thread.size(), 8u);
}

TEST(Executor, BatchedReleaseWideFanoutStaysExact) {
  // A flat-tree panel factorization makes every trailing-column update
  // ready at once when it completes — the widest successor batches the
  // release path sees. All but the kept task of each batch flow through
  // the deques; every task is acquired exactly once, and the factorization
  // must stay at machine precision, here with inner-blocked kernels too.
  Rng rng(29);
  Matrix a0 = random_gaussian(72, 40, rng);
  for (int ib : {0, 4}) {
    ExecutorOptions opts{.threads = 8, .ib = ib};
    RunStats stats;
    QRFactors f = qr_factorize_parallel(a0, 8, flat_ts_list(9, 5), opts,
                                        &stats);
    expect_exact(a0, f);
    EXPECT_EQ(stats.reuse_hits + stats.queue_pops, stats.total_tasks);
  }
}

TEST(Executor, ChainRunsOnTheReuseSlot) {
  // A one-column flat-TS factorization is a pure chain: GEQRT, then one
  // TSQRT per tile below. Each completion makes exactly one task ready and
  // the worker keeps it, so only the root is ever acquired from a queue —
  // at any thread count.
  Rng rng(37);
  Matrix a0 = random_gaussian(24, 4, rng);
  for (int threads : {1, 4}) {
    ExecutorOptions opts{.threads = threads};
    RunStats stats;
    QRFactors f = qr_factorize_parallel(a0, 4, flat_ts_list(6, 1), opts,
                                        &stats);
    expect_exact(a0, f);
    EXPECT_EQ(stats.total_tasks, 6) << threads << " threads";
    EXPECT_EQ(stats.queue_pops, 1) << threads << " threads";
    EXPECT_EQ(stats.reuse_hits, 5) << threads << " threads";
  }
}

TEST(Executor, StressManySmallTilesManyThreads) {
  Rng rng(17);
  Matrix a0 = random_gaussian(60, 30, rng);
  ExecutorOptions opts{.threads = 8};
  QRFactors f = qr_factorize_parallel(
      a0, 2, greedy_global_list(30, 15).list, opts);
  expect_exact(a0, f);
}

}  // namespace
}  // namespace hqr
