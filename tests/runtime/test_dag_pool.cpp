#include "runtime/dag_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/factorization.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/tiled_matrix.hpp"
#include "runtime/executor.hpp"
#include "trees/single_level.hpp"

namespace hqr {
namespace {

// A factorization packaged for pool submission, the way the serve layer
// does it: graph and factors share one kernel list.
struct Job {
  std::shared_ptr<QRFactors> f;
  std::shared_ptr<const TaskGraph> graph;
};

Job make_job(const Matrix& a, int b, const EliminationList& list) {
  TiledMatrix t = TiledMatrix::from_matrix(a, b);
  KernelList ks = expand_to_kernels(list, t.mt(), t.nt());
  Job j;
  j.graph = std::make_shared<const TaskGraph>(ks, t.mt(), t.nt());
  j.f = std::make_shared<QRFactors>(std::move(t), std::move(ks), 0);
  return j;
}

DagPool::ExecuteFn exec_fn(std::shared_ptr<QRFactors> f) {
  return [f = std::move(f)](std::int32_t idx, TileWorkspace& ws) {
    execute_kernel(f->kernels()[static_cast<std::size_t>(idx)], *f, ws);
  };
}

// The single GEQRT op: a 1-task graph for pure scheduling tests (the exec
// fn ignores the op entirely).
std::shared_ptr<const TaskGraph> one_task_graph() {
  KernelList ks{{KernelType::GEQRT, 0, 0, 0, -1}};
  return std::make_shared<const TaskGraph>(ks, 1, 1);
}

// Holds every worker of a pool: `workers` independent tasks that wait on
// one shared future, at a priority above the DAGs a test submits after it.
// Those DAGs are admitted but provably unrun until release(): a free worker
// always takes a remaining blocker task first and then holds it.
class Blocker {
 public:
  Blocker(DagPool& pool, int workers) {
    KernelList ks;
    for (int i = 0; i < workers; ++i)
      ks.push_back({KernelType::GEQRT, i, i, 0, -1});
    DagSubmitOptions sopts;
    sopts.priority = 1;
    id_ = pool.submit(std::make_shared<const TaskGraph>(ks, workers, 1), 1,
                      [gate = gate_](std::int32_t, TileWorkspace&) {
                        gate.wait();
                      },
                      sopts);
  }
  // Also on an early test exit, so the pool is never torn down while its
  // workers wait here.
  ~Blocker() { release(); }

  void release() {
    if (!released_) release_.set_value();
    released_ = true;
  }
  DagId id() const { return id_; }

 private:
  std::promise<void> release_;
  std::shared_future<void> gate_ = release_.get_future().share();
  bool released_ = false;
  DagId id_ = 0;
};

TEST(DagPool, SingleDagBitIdenticalToSequential) {
  // Kernels write disjoint tile regions in dependency order, so any valid
  // pool schedule must reproduce the sequential R to the last bit.
  Rng rng(3);
  Matrix a0 = random_gaussian(40, 24, rng);
  auto list = flat_ts_list(5, 3);
  QRFactors seq = qr_factorize_sequential(a0, 8, list);

  for (int threads : {1, 4}) {
    DagPoolOptions opts;
    opts.threads = threads;
    DagPool pool(opts);
    Job j = make_job(a0, 8, list);
    DagId id = pool.submit(j.graph, 8, exec_fn(j.f));
    EXPECT_TRUE(pool.wait(id));
    EXPECT_EQ(max_abs_diff(extract_r(seq).view(), extract_r(*j.f).view()),
              0.0);
  }
}

TEST(DagPool, SingleDagBitIdenticalToExecutorPath) {
  // The multi-DAG pool and the single-DAG executor must agree bitwise —
  // the pinned guarantee that adding the pool changed no numerics.
  Rng rng(5);
  Matrix a0 = random_gaussian(36, 20, rng);
  auto list = per_panel_tree_list(TreeKind::Binary, 9, 5);
  ExecutorOptions eopts{.threads = 4};
  QRFactors par = qr_factorize_parallel(a0, 4, list, eopts);

  DagPoolOptions opts;
  opts.threads = 4;
  DagPool pool(opts);
  Job j = make_job(a0, 4, list);
  DagId id = pool.submit(j.graph, 4, exec_fn(j.f));
  EXPECT_TRUE(pool.wait(id));
  EXPECT_EQ(max_abs_diff(extract_r(par).view(), extract_r(*j.f).view()), 0.0);
}

TEST(DagPool, EightConcurrentDagsOnOnePool) {
  // A blocker holds every worker, so all eight DAGs are provably active at
  // once; then it lets go and each result is checked independently.
  constexpr int kDags = 8;
  Rng rng(7);
  DagPoolOptions opts;
  opts.threads = 4;
  DagPool pool(opts);
  Blocker blocker(pool, opts.threads);

  std::vector<Matrix> inputs;
  std::vector<Job> jobs;
  std::vector<DagId> ids;
  for (int d = 0; d < kDags; ++d) {
    // Different shapes per request, like a multi-tenant mix.
    const int mt = 2 + d % 3, nt = 1 + d % 2;
    inputs.push_back(random_gaussian(8 * mt, 8 * nt, rng));
    jobs.push_back(make_job(inputs.back(), 8, flat_ts_list(mt, nt)));
    ids.push_back(pool.submit(jobs[d].graph, 8, exec_fn(jobs[d].f)));
  }
  EXPECT_EQ(pool.active_dags(), kDags + 1);  // the blocker counts too
  EXPECT_EQ(pool.stats().tasks_executed, 0);

  blocker.release();
  EXPECT_TRUE(pool.wait(blocker.id()));
  for (int d = 0; d < kDags; ++d) EXPECT_TRUE(pool.wait(ids[d]));
  EXPECT_GE(pool.stats().max_active_dags, kDags + 1);

  for (int d = 0; d < kDags; ++d) {
    QRFactors seq = qr_factorize_sequential(
        inputs[d], 8, flat_ts_list(jobs[d].f->mt(), jobs[d].f->nt()));
    EXPECT_EQ(
        max_abs_diff(extract_r(seq).view(), extract_r(*jobs[d].f).view()),
        0.0)
        << "dag " << d;
  }
}

TEST(DagPool, HigherPriorityDagRunsFirst) {
  DagPoolOptions opts;
  opts.threads = 1;  // serialize: admission order is fully observable
  DagPool pool(opts);

  // Hold the only worker inside a blocker DAG while the queue builds up.
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  DagId blocker = pool.submit(one_task_graph(), 1,
                              [released](std::int32_t, TileWorkspace&) {
                                released.wait();
                              });

  std::mutex mu;
  std::vector<int> order;
  auto recorder = [&](int label) {
    return [&, label](std::int32_t, TileWorkspace&) {
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(label);
    };
  };
  DagSubmitOptions lo;
  lo.priority = 0;
  DagSubmitOptions hi;
  hi.priority = 5;
  DagId lo_id = pool.submit(one_task_graph(), 1, recorder(0), lo);
  DagId hi_id = pool.submit(one_task_graph(), 1, recorder(1), hi);

  release.set_value();
  EXPECT_TRUE(pool.wait(blocker));
  EXPECT_TRUE(pool.wait(lo_id));
  EXPECT_TRUE(pool.wait(hi_id));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // priority 5 beat priority 0 despite later submit
  EXPECT_EQ(order[1], 0);
}

TEST(DagPool, EqualPriorityDagsInterleaveFairly) {
  DagPoolOptions opts;
  opts.threads = 1;
  DagPool pool(opts);

  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  DagId blocker = pool.submit(one_task_graph(), 1,
                              [released](std::int32_t, TileWorkspace&) {
                                released.wait();
                              });

  // Two equal-priority chains; least-delivered-first must alternate them
  // (A1 B1 A2 B2 ...) instead of draining one whole chain first.
  Rng rng(13);
  Matrix a = random_gaussian(32, 8, rng);
  auto list = flat_ts_list(4, 1);
  Job ja = make_job(a, 8, list);
  Job jb = make_job(a, 8, list);
  std::mutex mu;
  std::vector<int> order;
  auto traced = [&](std::shared_ptr<QRFactors> f, int label) {
    return [&, f, label](std::int32_t idx, TileWorkspace& ws) {
      execute_kernel(f->kernels()[static_cast<std::size_t>(idx)], *f, ws);
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(label);
    };
  };
  DagId ida = pool.submit(ja.graph, 8, traced(ja.f, 0));
  DagId idb = pool.submit(jb.graph, 8, traced(jb.f, 1));

  release.set_value();
  EXPECT_TRUE(pool.wait(blocker));
  EXPECT_TRUE(pool.wait(ida));
  EXPECT_TRUE(pool.wait(idb));
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_NE(order[i], order[i - 1]) << "chains did not alternate at " << i;
}

TEST(DagPool, CancelledDagReportsCancelled) {
  DagPoolOptions opts;
  opts.threads = 2;
  DagPool pool(opts);
  // The blocker holds both workers, so the DAG is still unrun when it is
  // cancelled: a deterministic cancel.
  Blocker blocker(pool, opts.threads);
  Rng rng(17);
  Matrix a = random_gaussian(16, 8, rng);
  Job j = make_job(a, 8, flat_ts_list(2, 1));
  DagSubmitOptions sopts;
  bool done_cancelled = false;
  sopts.on_done = [&](DagId, bool cancelled) { done_cancelled = cancelled; };
  DagId id = pool.submit(j.graph, 8, exec_fn(j.f), sopts);

  EXPECT_TRUE(pool.cancel(id));
  EXPECT_FALSE(pool.wait(id));
  EXPECT_TRUE(done_cancelled);
  EXPECT_EQ(pool.stats().dags_cancelled, 1);
  EXPECT_FALSE(pool.cancel(id));  // already gone

  blocker.release();
  EXPECT_TRUE(pool.wait(blocker.id()));
  EXPECT_EQ(pool.stats().tasks_executed, opts.threads);  // the blocker's
}

TEST(DagPool, ThrowingKernelPoisonsOnlyItsOwnDag) {
  DagPoolOptions opts;
  opts.threads = 2;
  DagPool pool(opts);
  DagId bad = pool.submit(one_task_graph(), 1,
                          [](std::int32_t, TileWorkspace&) {
                            throw Error("kernel blew up");
                          });
  Rng rng(19);
  Matrix a = random_gaussian(24, 16, rng);
  Job j = make_job(a, 8, flat_ts_list(3, 2));
  DagId good = pool.submit(j.graph, 8, exec_fn(j.f));

  EXPECT_FALSE(pool.wait(bad));
  EXPECT_TRUE(pool.wait(good));
  QRFactors seq = qr_factorize_sequential(a, 8, flat_ts_list(3, 2));
  EXPECT_EQ(max_abs_diff(extract_r(seq).view(), extract_r(*j.f).view()), 0.0);
}

TEST(DagPool, WaitAllCoversOnDoneCallbacks) {
  // wait_all() is the license to destroy the pool: it must not return
  // while an on_done callback is still running, nor before a DAG that
  // callback chained via submit() (the serve layer's Q-formation pattern)
  // has finished — otherwise the chained submit races ~DagPool and throws
  // on a worker thread with no handler.
  DagPoolOptions opts;
  opts.threads = 2;
  DagPool pool(opts);
  std::atomic<bool> chained_done{false};
  DagSubmitOptions first;
  first.on_done = [&](DagId, bool) {
    // Widen the race window: without callback tracking, wait_all() has
    // already returned long before the chained submit below runs.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    DagSubmitOptions second;
    second.on_done = [&](DagId, bool) { chained_done.store(true); };
    pool.submit(one_task_graph(), 1, [](std::int32_t, TileWorkspace&) {},
                std::move(second));
  };
  pool.submit(one_task_graph(), 1, [](std::int32_t, TileWorkspace&) {},
              std::move(first));
  pool.wait_all();
  EXPECT_TRUE(chained_done.load());
}

TEST(DagPool, StatsCountTasksAndDags) {
  DagPoolOptions opts;
  opts.threads = 2;
  DagPool pool(opts);
  Rng rng(23);
  Matrix a = random_gaussian(16, 16, rng);
  Job j = make_job(a, 8, flat_ts_list(2, 2));
  DagId id = pool.submit(j.graph, 8, exec_fn(j.f));
  EXPECT_TRUE(pool.wait(id));
  DagPoolStats st = pool.stats();
  EXPECT_EQ(st.dags_submitted, 1);
  EXPECT_EQ(st.dags_completed, 1);
  EXPECT_EQ(st.tasks_executed, j.graph->size());
  pool.wait_all();
  EXPECT_EQ(pool.active_dags(), 0);
}

TEST(DagPool, AdmissionLimitThrowsTypedOverload) {
  // Deterministic: a blocker holds the only worker, so the DAGs under test
  // stay admitted and unfinished without timing assumptions. The blocker
  // counts toward the bound.
  DagPoolOptions opts;
  opts.threads = 1;
  opts.max_active_dags = 3;
  DagPool pool(opts);
  Blocker blocker(pool, opts.threads);

  const auto open_dag = [&](const DagSubmitOptions& sopts) {
    return pool.submit(one_task_graph(), 1,
                       [](std::int32_t, TileWorkspace&) {}, sopts);
  };
  const DagId a = open_dag({});
  const DagId b = open_dag({});
  EXPECT_EQ(pool.active_dags(), 3);

  // At the bound: a plain submit is refused with the typed overload (a
  // subclass of Error, so teardown-hardened callers still catch it).
  EXPECT_THROW(open_dag({}), PoolOverloaded);
  EXPECT_THROW(open_dag({}), Error);

  // Internal continuation DAGs bypass the limit and still run.
  DagSubmitOptions bypass;
  bypass.bypass_admission_limit = true;
  const DagId c = open_dag(bypass);
  EXPECT_EQ(pool.active_dags(), 4);

  // Draining below the bound frees a slot for the next submit (the
  // bypassed DAG counts toward active while it lives, so one cancel is not
  // enough).
  EXPECT_TRUE(pool.cancel(a));
  EXPECT_THROW(open_dag({}), PoolOverloaded);
  EXPECT_TRUE(pool.cancel(b));
  const DagId d = open_dag({});

  blocker.release();
  EXPECT_TRUE(pool.wait(c));
  EXPECT_TRUE(pool.wait(d));
  pool.wait_all();
  EXPECT_EQ(pool.active_dags(), 0);
}

}  // namespace
}  // namespace hqr
