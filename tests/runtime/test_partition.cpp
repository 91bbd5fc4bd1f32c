// In-process tests of the partitioned executor (the distributed runtime's
// per-rank slice, minus the sockets): two execute_partition calls share
// one QRFactors in the same address space, each runs its owner-computes
// slice as a DAG on the same shared pool, and each slice's on_complete
// feeds the peer's RemotePort — the same release protocol the
// communication thread drives in src/distrun/, with the wire replaced by
// shared memory.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
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

// All tasks mapped to the caller's rank: the partitioned run degenerates
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

// Two partitions over one shared QRFactors, cross-wired through
// RemotePort: each on_complete releases the peer's successors, exactly
// like the distributed runtime's receive path (shared memory stands in for
// the payload transfer). Both run as DAGs on the one 2-worker pool.
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
      // Notify the peer partition about producers it consumes, once per
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

// cancel() unblocks a partition whose remote predecessors never arrive.
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
  // The run returned (did not hang) without running its whole slice.
  EXPECT_LT(stats.total_tasks, p.graph.size());
}

// A rank that owns no task has nothing to wait for: the call returns at
// once, still handing out the port and tearing down around it.
TEST(Partition, EmptyPartitionReturnsAtOnce) {
  Problem p = make_problem(128, 64, 32, Distribution::cyclic_1d(1));
  QRFactors f(TiledMatrix::from_matrix(p.a, p.b), p.kernels, 0);
  PartitionView view;
  view.task_rank = &p.plan.node();
  view.my_rank = 1;  // every task is on rank 0
  bool ported = false, torn_down = false;
  const RunStats stats = execute_partition(
      f, p.graph, ExecutorOptions{.threads = 2}, view,
      [&](RemotePort&) { ported = true; }, [&] { torn_down = true; });
  EXPECT_EQ(stats.total_tasks, 0);
  for (long long t : stats.tasks_per_thread) EXPECT_EQ(t, 0);
  EXPECT_TRUE(ported);
  EXPECT_TRUE(torn_down);
}

// An exception thrown on a worker cancels the run and reaches the caller
// after before_teardown; the shared pool it ran on keeps working, and the
// next run on it reproduces the sequential bits.
TEST(Partition, TaskExceptionReachesTheCallerAndThePoolSurvives) {
  Problem p = make_problem(128, 96, 32, Distribution::cyclic_1d(1));
  const EliminationList list = hqr_elimination_list(
      4, 3, HqrConfig{4, 2, TreeKind::Greedy, TreeKind::Fibonacci, true});
  const QRFactors ref = qr_factorize_sequential(p.a, p.b, list, 0);
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    QRFactors f(TiledMatrix::from_matrix(p.a, p.b), p.kernels, 0);
    PartitionView view;
    view.task_rank = &p.plan.node();
    view.my_rank = 0;
    std::atomic<int> calls{0};
    view.on_complete = [&](std::int32_t) {
      if (calls.fetch_add(1) + 1 == 3) throw Error("third completion fails");
    };
    bool torn_down = false;
    const ExecutorOptions opts{.threads = threads};
    EXPECT_THROW(execute_partition(f, p.graph, opts, view,
                                   [](RemotePort&) {},
                                   [&] { torn_down = true; }),
                 Error);
    EXPECT_TRUE(torn_down);
    EXPECT_LT(calls.load(), p.graph.size());

    const QRFactors again = qr_factorize_parallel(p.a, p.b, list, opts);
    EXPECT_TRUE(same_matrix(again.a(), ref.a()));
  }
}

// port_ready throwing is the caller's setup failing after the slice was
// submitted: the run is cancelled, before_teardown still runs, and the
// exception reaches the caller instead of a wait on remote producers that
// never report. The pool keeps working.
TEST(Partition, PortReadyExceptionCancelsTheRun) {
  const Distribution dist = Distribution::cyclic_1d(2);
  Problem p = make_problem(128, 64, 32, dist);
  QRFactors f(TiledMatrix::from_matrix(p.a, p.b), p.kernels, 0);
  PartitionView view;
  view.task_rank = &p.plan.node();
  view.my_rank = 1;  // rank 1 needs rank 0's tiles, which never come
  const ExecutorOptions opts{.threads = 2};
  bool torn_down = false;
  EXPECT_THROW(execute_partition(
                   f, p.graph, opts, view,
                   [](RemotePort&) { throw Error("port setup failed"); },
                   [&] { torn_down = true; }),
               Error);
  EXPECT_TRUE(torn_down);

  QRFactors whole(TiledMatrix::from_matrix(p.a, p.b), p.kernels, 0);
  const RunStats stats = execute_parallel(whole, p.graph, opts);
  EXPECT_EQ(stats.total_tasks, p.graph.size());
}

// on_complete runs once per local task, before the task's successors are
// released: along every edge the producer's callback came first.
TEST(Partition, OnCompleteFiresOncePerTaskBeforeItsSuccessors) {
  Problem p = make_problem(160, 128, 32, Distribution::cyclic_1d(1));
  QRFactors f(TiledMatrix::from_matrix(p.a, p.b), p.kernels, 0);
  std::mutex mu;
  std::vector<std::int32_t> order;
  PartitionView view;
  view.task_rank = &p.plan.node();
  view.my_rank = 0;
  view.on_complete = [&](std::int32_t t) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(t);
  };
  execute_partition(f, p.graph, ExecutorOptions{.threads = 4}, view,
                    [](RemotePort&) {});
  ASSERT_EQ(static_cast<int>(order.size()), p.graph.size());
  std::vector<int> pos(order.size(), -1);
  for (std::size_t k = 0; k < order.size(); ++k) {
    ASSERT_EQ(pos[static_cast<std::size_t>(order[k])], -1)
        << "task " << order[k] << " completed twice";
    pos[static_cast<std::size_t>(order[k])] = static_cast<int>(k);
  }
  for (int i = 0; i < p.graph.size(); ++i)
    for (std::int32_t s : p.graph.successors(i))
      EXPECT_LT(pos[static_cast<std::size_t>(i)],
                pos[static_cast<std::size_t>(s)])
          << "edge " << i << " -> " << s;
}

}  // namespace
}  // namespace hqr
