// In-process tests of the partitioned executor (the distributed runtime's
// per-rank engine, minus the sockets): two execute_partition calls share
// one QRFactors in the same address space, each runs its owner-computes
// slice, and each engine's on_complete feeds the peer's RemotePort — the
// same release protocol the communication thread drives in src/distrun/,
// with the wire replaced by shared memory.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/factorization.hpp"
#include "dag/partition.hpp"
#include "linalg/random_matrix.hpp"
#include "runtime/executor.hpp"
#include "trees/hqr_tree.hpp"

namespace hqr {
namespace {

struct Problem {
  Matrix a;
  KernelList kernels;
  TaskGraph graph;
  CommPlan plan;
  int b;
};

Problem make_problem(int m, int n, int b, const Distribution& dist) {
  Rng rng(3);
  Matrix a = random_gaussian(m, n, rng);
  const TiledMatrix probe = TiledMatrix::from_matrix(a, b);
  HqrConfig cfg{4, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
  KernelList kernels = expand_to_kernels(
      hqr_elimination_list(probe.mt(), probe.nt(), cfg), probe.mt(),
      probe.nt());
  TaskGraph graph(kernels, probe.mt(), probe.nt());
  CommPlan plan(graph, dist);
  return {std::move(a), std::move(kernels), std::move(graph), std::move(plan),
          b};
}

bool same_matrix(const TiledMatrix& x, const TiledMatrix& y) {
  const Matrix mx = x.to_padded_matrix();
  const Matrix my = y.to_padded_matrix();
  for (int j = 0; j < mx.cols(); ++j)
    for (int i = 0; i < mx.rows(); ++i)
      if (mx(i, j) != my(i, j)) return false;
  return true;
}

// All tasks mapped to the caller's rank: the partitioned engine degenerates
// to execute_parallel and must produce the sequential result.
TEST(Partition, WholeGraphLocalMatchesSequential) {
  Problem p = make_problem(128, 96, 32, Distribution::cyclic_1d(1));
  QRFactors f(TiledMatrix::from_matrix(p.a, p.b), p.kernels, 0);
  PartitionView view;
  view.task_rank = &p.plan.node();
  view.my_rank = 0;
  ExecutorOptions opts;
  opts.threads = 2;
  const RunStats stats = execute_partition(
      f, p.graph, opts, view, [](RemotePort&) {}, {});
  EXPECT_EQ(stats.total_tasks, p.graph.size());

  QRFactors ref = qr_factorize_sequential(p.a, p.b,
      hqr_elimination_list(f.a().mt(), f.a().nt(),
                           HqrConfig{4, 2, TreeKind::Greedy,
                                     TreeKind::Fibonacci, true}),
      0);
  EXPECT_TRUE(same_matrix(f.a(), ref.a()));
}

// Two engines over one shared QRFactors, cross-wired through RemotePort:
// each on_complete releases the peer's successors, exactly like the
// distributed runtime's receive path (shared memory stands in for the
// payload transfer).
TEST(Partition, TwoCrossWiredEnginesCoverTheGraph) {
  const Distribution dist = Distribution::block_cyclic_2d(2, 1);
  Problem p = make_problem(192, 128, 32, dist);
  QRFactors f(TiledMatrix::from_matrix(p.a, p.b), p.kernels, 0);
  const std::vector<std::int32_t>& rank = p.plan.node();

  std::atomic<RemotePort*> port[2] = {nullptr, nullptr};
  std::atomic<bool> done[2] = {false, false};
  RunStats stats[2];

  auto run_rank = [&](int me) {
    const int peer = 1 - me;
    PartitionView view;
    view.task_rank = &rank;
    view.my_rank = me;
    view.on_complete = [&, me, peer](std::int32_t t) {
      // Notify the peer engine about producers it consumes, once per
      // producer (the plan's dests() dedup, same as the wire protocol).
      if (p.plan.dests(t).empty()) return;
      RemotePort* pp = nullptr;
      while ((pp = port[peer].load()) == nullptr) std::this_thread::yield();
      pp->remote_complete(t);
    };
    ExecutorOptions opts;
    opts.threads = 2;
    stats[me] = execute_partition(
        f, p.graph, opts, view,
        [&](RemotePort& pt) { port[me].store(&pt); },
        [&] {
          // Keep the port alive until the peer can no longer call into it.
          done[me].store(true);
          while (!done[peer].load()) std::this_thread::yield();
        });
  };

  std::thread t1([&] { run_rank(1); });
  run_rank(0);
  t1.join();

  EXPECT_EQ(stats[0].total_tasks, p.plan.tasks_on(0));
  EXPECT_EQ(stats[1].total_tasks, p.plan.tasks_on(1));
  EXPECT_EQ(stats[0].total_tasks + stats[1].total_tasks, p.graph.size());

  QRFactors ref = qr_factorize_sequential(
      p.a, p.b,
      hqr_elimination_list(f.a().mt(), f.a().nt(),
                           HqrConfig{4, 2, TreeKind::Greedy,
                                     TreeKind::Fibonacci, true}),
      0);
  EXPECT_TRUE(same_matrix(f.a(), ref.a()));
}

// cancel() unblocks an engine whose remote predecessors never arrive.
TEST(Partition, CancelUnblocksStarvedEngine) {
  const Distribution dist = Distribution::cyclic_1d(2);
  Problem p = make_problem(128, 64, 32, dist);
  QRFactors f(TiledMatrix::from_matrix(p.a, p.b), p.kernels, 0);

  PartitionView view;
  view.task_rank = &p.plan.node();
  view.my_rank = 1;  // rank 1 needs rank 0's tiles, which never come
  ExecutorOptions opts{.threads = 2};
  std::thread killer;
  const RunStats stats = execute_partition(
      f, p.graph, opts, view,
      [&](RemotePort& pt) {
        killer = std::thread([&pt] {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          pt.cancel();
        });
      },
      [&] { killer.join(); });
  // The engine returned (did not hang) without running its whole slice.
  EXPECT_LT(stats.total_tasks, p.graph.size());
}

}  // namespace
}  // namespace hqr
