#include "runtime/dag_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/factorization.hpp"
#include "linalg/householder.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/tiled_matrix.hpp"
#include "obs/metrics.hpp"
#include "runtime/executor.hpp"
#include "trees/hqr_tree.hpp"
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
  return [f = std::move(f)](std::int32_t idx, int, TileWorkspace& ws) {
    execute_kernel(f->kernels()[static_cast<std::size_t>(idx)], *f, ws);
  };
}

// The single GEQRT op: a 1-task graph for pure scheduling tests (the exec
// fn ignores the op entirely).
std::shared_ptr<const TaskGraph> one_task_graph() {
  KernelList ks{{KernelType::GEQRT, 0, 0, 0, -1}};
  return std::make_shared<const TaskGraph>(ks, 1, 1);
}

// `n` GEQRTs on distinct tiles: n independent tasks, every one a root.
std::shared_ptr<const TaskGraph> independent_graph(int n) {
  KernelList ks;
  for (int i = 0; i < n; ++i) ks.push_back({KernelType::GEQRT, i, i, 0, -1});
  return std::make_shared<const TaskGraph>(ks, n, 1);
}

// Holds every worker of a pool: `workers` independent tasks that wait on
// one shared future, at a priority above the DAGs a test submits after it.
// Those DAGs are admitted but provably unrun until release(): a free worker
// always takes a remaining blocker task first and then holds it.
class Blocker {
 public:
  Blocker(DagPool& pool, int workers) {
    DagSubmitOptions sopts;
    sopts.priority = 1;
    id_ = pool.submit(independent_graph(workers), 1,
                      [gate = gate_](std::int32_t, int, TileWorkspace&) {
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
  // A private pool and the executor's shared one must agree bitwise: the
  // pool's schedule changes no numerics.
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
                              [released](std::int32_t, int, TileWorkspace&) {
                                released.wait();
                              });

  std::mutex mu;
  std::vector<int> order;
  auto recorder = [&](int label) {
    return [&, label](std::int32_t, int, TileWorkspace&) {
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
                              [released](std::int32_t, int, TileWorkspace&) {
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
    return [&, f, label](std::int32_t idx, int, TileWorkspace& ws) {
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
                          [](std::int32_t, int, TileWorkspace&) {
                            throw Error("kernel blew up");
                          });
  Rng rng(19);
  Matrix a = random_gaussian(24, 16, rng);
  Job j = make_job(a, 8, flat_ts_list(3, 2));
  DagId good = pool.submit(j.graph, 8, exec_fn(j.f));

  EXPECT_THROW(pool.wait(bad), Error);  // the kernel's own exception
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
    pool.submit(one_task_graph(), 1, [](std::int32_t, int, TileWorkspace&) {},
                std::move(second));
  };
  pool.submit(one_task_graph(), 1, [](std::int32_t, int, TileWorkspace&) {},
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
                       [](std::int32_t, int, TileWorkspace&) {}, sopts);
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

TEST(DagPool, RemoteCompletionIsNamespacedByDag) {
  // Two DAGs over the same two-task chain, whose first task is remote: a
  // completion reported through one DAG's port releases only that DAG's
  // task 1, and one reported after its DAG finished is ignored.
  DagPoolOptions opts;
  opts.threads = 2;
  DagPool pool(opts);
  Rng rng(29);
  const Matrix a = random_gaussian(16, 8, rng);
  const Job j = make_job(a, 8, flat_ts_list(2, 1));
  ASSERT_EQ(j.graph->size(), 2);
  std::atomic<int> ran[2] = {0, 0};
  const auto submit = [&](int label) {
    DagSubmitOptions sopts;
    sopts.remote = {true, false};
    return pool.submit(j.graph, 8,
                       [&ran, label](std::int32_t idx, int, TileWorkspace&) {
                         EXPECT_EQ(idx, 1);
                         ran[label].fetch_add(1);
                       },
                       std::move(sopts));
  };
  const DagId first = submit(0);
  const DagId second = submit(1);
  EXPECT_EQ(pool.ready_tasks(), 0);  // task 1 waits on the remote task 0

  pool.port(first).remote_complete(0);
  EXPECT_TRUE(pool.wait(first));
  pool.port(first).remote_complete(0);  // after the DAG finished: ignored
  EXPECT_EQ(ran[0].load(), 1);
  EXPECT_EQ(ran[1].load(), 0);
  EXPECT_EQ(pool.active_dags(), 1);

  pool.port(second).remote_complete(0);
  EXPECT_TRUE(pool.wait(second));
  EXPECT_EQ(ran[1].load(), 1);
  EXPECT_EQ(pool.stats().tasks_executed, 2);
}

TEST(DagPool, WorkerIndexIsStablePerThreadAndInRange) {
  // The executor's per-worker tallies rely on it: the index a task is
  // handed lies in [0, threads) and names one worker thread, always the
  // same one.
  DagPoolOptions opts;
  opts.threads = 4;
  DagPool pool(opts);
  std::mutex mu;
  std::map<std::thread::id, std::vector<int>> seen;
  const DagId id = pool.submit(
      independent_graph(64), 1, [&](std::int32_t, int worker, TileWorkspace&) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        std::lock_guard<std::mutex> lk(mu);
        seen[std::this_thread::get_id()].push_back(worker);
      });
  EXPECT_TRUE(pool.wait(id));
  std::map<int, std::thread::id> owner;
  int tasks = 0;
  for (const auto& [thread, workers] : seen) {
    for (int w : workers) {
      EXPECT_GE(w, 0);
      EXPECT_LT(w, opts.threads);
      EXPECT_EQ(w, workers.front()) << "a thread reported two indices";
    }
    EXPECT_TRUE(owner.emplace(workers.front(), thread).second)
        << "worker " << workers.front() << " named two threads";
    tasks += static_cast<int>(workers.size());
  }
  EXPECT_EQ(tasks, 64);
}

TEST(DagPool, SingleWorkerRunsReadyTasksByCriticalPathDepth) {
  // One worker makes the pick order observable: each task it runs must be
  // the deepest of the tasks ready at that moment (longest unit-weight
  // path to a sink), the lower index among equals.
  HqrConfig cfg{3, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
  const KernelList ks =
      expand_to_kernels(hqr_elimination_list(6, 4, cfg), 6, 4);
  const auto graph = std::make_shared<const TaskGraph>(ks, 6, 4);
  DagPoolOptions opts;
  opts.threads = 1;
  DagPool pool(opts);
  std::vector<std::int32_t> order;
  const DagId id = pool.submit(
      graph, 1,
      [&](std::int32_t idx, int, TileWorkspace&) { order.push_back(idx); });
  EXPECT_TRUE(pool.wait(id));
  ASSERT_EQ(static_cast<int>(order.size()), graph->size());

  std::vector<double> depth;
  graph->critical_path(unit_weight_duration, &depth);
  std::vector<int> npred(static_cast<std::size_t>(graph->size()));
  std::vector<bool> ready(npred.size()), ran(npred.size());
  for (int i = 0; i < graph->size(); ++i) {
    npred[static_cast<std::size_t>(i)] = graph->num_predecessors(i);
    ready[static_cast<std::size_t>(i)] = graph->num_predecessors(i) == 0;
  }
  for (std::size_t step = 0; step < order.size(); ++step) {
    int best = -1;
    for (int i = 0; i < graph->size(); ++i)
      if (ready[static_cast<std::size_t>(i)] &&
          (best < 0 || depth[static_cast<std::size_t>(i)] >
                           depth[static_cast<std::size_t>(best)]))
        best = i;
    ASSERT_EQ(order[step], best) << "step " << step;
    ready[static_cast<std::size_t>(best)] = false;
    ran[static_cast<std::size_t>(best)] = true;
    for (std::int32_t s : graph->successors(best))
      if (--npred[static_cast<std::size_t>(s)] == 0)
        ready[static_cast<std::size_t>(s)] = true;
  }
  for (bool r : ran) EXPECT_TRUE(r);
}

TEST(DagPool, EveryTaskStartsAfterItsPredecessorsFinished) {
  // Four workers on a factorization DAG: one shared sequence numbers every
  // task's start and finish, and along every edge the producer finished
  // before the consumer started. Each task ran exactly once.
  Rng rng(31);
  const Matrix a = random_gaussian(48, 24, rng);
  const EliminationList list = greedy_global_list(12, 6).list;
  const Job j = make_job(a, 4, list);
  const int n = j.graph->size();
  std::atomic<long long> seq{0};
  std::vector<long long> start(static_cast<std::size_t>(n), -1);
  std::vector<long long> finish(static_cast<std::size_t>(n), -1);
  std::vector<std::atomic<int>> runs(static_cast<std::size_t>(n));
  DagPoolOptions opts;
  opts.threads = 4;
  DagPool pool(opts);
  const DagId id = pool.submit(
      j.graph, 4, [&, f = j.f](std::int32_t idx, int, TileWorkspace& ws) {
        const auto i = static_cast<std::size_t>(idx);
        runs[i].fetch_add(1);
        start[i] = seq.fetch_add(1);
        execute_kernel(f->kernels()[i], *f, ws);
        finish[i] = seq.fetch_add(1);
      });
  EXPECT_TRUE(pool.wait(id));
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(runs[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
    for (std::int32_t s : j.graph->successors(i))
      EXPECT_LT(finish[static_cast<std::size_t>(i)],
                start[static_cast<std::size_t>(s)])
          << "edge " << i << " -> " << s;
  }
  const QRFactors seq_f = qr_factorize_sequential(a, 4, list);
  EXPECT_EQ(max_abs_diff(extract_r(seq_f).view(), extract_r(*j.f).view()),
            0.0);
}

TEST(DagPool, WorkspaceIsSizedForEachDagsTileSize) {
  // Seven tile sizes in flight at once, twice over, on two workers: more
  // sizes than a worker caches workspaces for, so the cache evicts. Every
  // task still gets a workspace built for its own DAG's b.
  DagPoolOptions opts;
  opts.threads = 2;
  DagPool pool(opts);
  std::atomic<int> tasks{0}, mismatched{0};
  for (int rep = 0; rep < 2; ++rep) {
    std::vector<DagId> ids;
    for (int b = 1; b <= 7; ++b)
      ids.push_back(pool.submit(
          independent_graph(6), b,
          [&, b](std::int32_t, int, TileWorkspace& ws) {
            tasks.fetch_add(1);
            if (ws.b() != b ||
                ws.scratch().size() != larfb_scratch_doubles(b, b, b))
              mismatched.fetch_add(1);
          }));
    for (DagId id : ids) EXPECT_TRUE(pool.wait(id));
  }
  EXPECT_EQ(tasks.load(), 2 * 7 * 6);
  EXPECT_EQ(mismatched.load(), 0);
}

TEST(DagPool, DagWithoutLocalTasksFinishesAtSubmit) {
  // All tasks remote, or no task at all: nothing will ever run, so the DAG
  // completes inside submit() and on_done fires on the submitting thread.
  DagPoolOptions opts;
  opts.threads = 2;
  DagPool pool(opts);
  std::atomic<int> ran{0};
  const auto count = [&](std::int32_t, int, TileWorkspace&) {
    ran.fetch_add(1);
  };
  const std::shared_ptr<const TaskGraph> graphs[] = {
      independent_graph(3),
      std::make_shared<const TaskGraph>(KernelList{}, 1, 1)};
  for (const auto& graph : graphs) {
    int calls = 0;
    bool was_cancelled = true;
    std::thread::id done_on;
    DagSubmitOptions sopts;
    sopts.remote.assign(static_cast<std::size_t>(graph->size()), true);
    sopts.on_done = [&](DagId, bool cancelled) {
      ++calls;
      was_cancelled = cancelled;
      done_on = std::this_thread::get_id();
    };
    const DagId id = pool.submit(graph, 1, count, std::move(sopts));
    EXPECT_EQ(calls, 1) << graph->size() << " tasks";
    EXPECT_FALSE(was_cancelled);
    EXPECT_EQ(done_on, std::this_thread::get_id());
    EXPECT_EQ(pool.active_dags(), 0);
    EXPECT_TRUE(pool.wait(id));
  }
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(pool.stats().dags_completed, 2);
  EXPECT_EQ(pool.stats().tasks_executed, 0);
}

TEST(DagPool, SubmitRejectsMalformedDags) {
  // A refused submit admits nothing: the pool still runs the next DAG.
  DagPoolOptions opts;
  opts.threads = 2;
  DagPool pool(opts);
  const auto noop = [](std::int32_t, int, TileWorkspace&) {};
  EXPECT_THROW(pool.submit(nullptr, 1, noop), Error);
  EXPECT_THROW(pool.submit(one_task_graph(), 0, noop), Error);
  DagSubmitOptions short_flags;
  short_flags.remote = {false, false};  // the graph has one task
  EXPECT_THROW(pool.submit(one_task_graph(), 1, noop, short_flags), Error);
  EXPECT_EQ(pool.active_dags(), 0);
  EXPECT_EQ(pool.stats().dags_submitted, 0);

  EXPECT_TRUE(pool.wait(pool.submit(one_task_graph(), 1, noop)));
  EXPECT_EQ(pool.stats().dags_submitted, 1);
  EXPECT_EQ(pool.stats().tasks_executed, 1);
}

TEST(DagPool, EachIdIsWaitedOnce) {
  // wait() consumes the DAG's outcome: a second wait on the same id, or a
  // wait on an id the pool never issued, is an error instead of a hang.
  DagPoolOptions opts;
  opts.threads = 1;
  DagPool pool(opts);
  const DagId id = pool.submit(one_task_graph(), 1,
                               [](std::int32_t, int, TileWorkspace&) {});
  EXPECT_TRUE(pool.wait(id));
  EXPECT_THROW(pool.wait(id), Error);
  EXPECT_THROW(pool.wait(id + 100), Error);
  // The pool is unharmed.
  EXPECT_TRUE(pool.wait(pool.submit(one_task_graph(), 1,
                                    [](std::int32_t, int, TileWorkspace&) {})));
}

TEST(DagPool, DestructorCancelsUnfinishedDags) {
  // A DAG whose only local task waits on a remote producer that never
  // reports: destroying the pool cancels it, fires its on_done with
  // cancelled = true, and returns instead of waiting forever.
  Rng rng(37);
  const Job j = make_job(random_gaussian(16, 8, rng), 8, flat_ts_list(2, 1));
  ASSERT_EQ(j.graph->size(), 2);
  std::atomic<int> ran{0}, cancelled_calls{0}, completed_calls{0};
  {
    DagPoolOptions opts;
    opts.threads = 2;
    DagPool pool(opts);
    DagSubmitOptions sopts;
    sopts.remote = {true, false};
    sopts.on_done = [&](DagId, bool cancelled) {
      (cancelled ? cancelled_calls : completed_calls).fetch_add(1);
    };
    pool.submit(j.graph, 8,
                [&](std::int32_t, int, TileWorkspace&) { ran.fetch_add(1); },
                std::move(sopts));
    EXPECT_EQ(pool.active_dags(), 1);
  }
  EXPECT_EQ(cancelled_calls.load(), 1);
  EXPECT_EQ(completed_calls.load(), 0);
  EXPECT_EQ(ran.load(), 0);
}

TEST(DagPool, MetricsMirrorStats) {
  // The dagpool.* sinks count what stats() counts: two DAGs that complete,
  // one (waiting on a remote producer) that is cancelled.
  obs::MetricsRegistry metrics;
  DagPoolOptions opts;
  opts.threads = 2;
  opts.metrics = &metrics;
  DagPool pool(opts);
  Rng rng(41);
  const Matrix a = random_gaussian(24, 16, rng);
  const Job j1 = make_job(a, 8, flat_ts_list(3, 2));
  const Job j2 = make_job(a, 8, flat_ts_list(3, 2));
  const DagId d1 = pool.submit(j1.graph, 8, exec_fn(j1.f));
  const DagId d2 = pool.submit(j2.graph, 8, exec_fn(j2.f));
  DagSubmitOptions starved;
  starved.remote.assign(static_cast<std::size_t>(j1.graph->size()), false);
  starved.remote[0] = true;
  const DagId d3 = pool.submit(j1.graph, 8,
                               [](std::int32_t, int, TileWorkspace&) {},
                               std::move(starved));
  EXPECT_TRUE(pool.wait(d1));
  EXPECT_TRUE(pool.wait(d2));
  EXPECT_TRUE(pool.cancel(d3));
  EXPECT_FALSE(pool.wait(d3));

  const DagPoolStats st = pool.stats();
  EXPECT_EQ(st.dags_submitted, 3);
  EXPECT_EQ(st.dags_completed, 2);
  EXPECT_EQ(st.dags_cancelled, 1);
  EXPECT_EQ(st.tasks_executed, 2LL * j1.graph->size());
  EXPECT_EQ(metrics.counter("dagpool.dags_submitted").value(),
            st.dags_submitted);
  EXPECT_EQ(metrics.counter("dagpool.dags_completed").value(),
            st.dags_completed);
  EXPECT_EQ(metrics.counter("dagpool.dags_cancelled").value(),
            st.dags_cancelled);
  EXPECT_EQ(metrics.counter("dagpool.tasks").value(), st.tasks_executed);
  EXPECT_EQ(metrics.gauge("dagpool.active_dags").value(), 0.0);
}

TEST(DagPool, ReadyTasksCountsQueuedWorkUntilCancelled) {
  // With every worker held, ready_tasks() is exactly the admitted roots:
  // six independent tasks plus a chain's one root. Cancelling a DAG drops
  // its queued tasks from the gauge.
  DagPoolOptions opts;
  opts.threads = 2;
  DagPool pool(opts);
  Blocker blocker(pool, opts.threads);
  // Both blocker tasks leave the queue once their workers hold them.
  while (pool.ready_tasks() > 0) std::this_thread::yield();

  const auto noop = [](std::int32_t, int, TileWorkspace&) {};
  const DagId wide = pool.submit(independent_graph(6), 1, noop);
  EXPECT_EQ(pool.ready_tasks(), 6);
  Rng rng(43);
  const Job chain =
      make_job(random_gaussian(24, 8, rng), 8, flat_ts_list(3, 1));
  const DagId narrow = pool.submit(chain.graph, 8, exec_fn(chain.f));
  EXPECT_EQ(pool.ready_tasks(), 7);

  EXPECT_TRUE(pool.cancel(wide));
  EXPECT_EQ(pool.ready_tasks(), 1);
  EXPECT_FALSE(pool.wait(wide));

  blocker.release();
  EXPECT_TRUE(pool.wait(narrow));
  EXPECT_TRUE(pool.wait(blocker.id()));
  EXPECT_EQ(pool.ready_tasks(), 0);
  EXPECT_EQ(pool.stats().tasks_executed,
            opts.threads + static_cast<long long>(chain.graph->size()));
}

TEST(DagPool, TaskCancellingItsOwnDagStopsItsSuccessors) {
  // Task 1 of a four-task chain cancels its DAG through the port while it
  // runs: it finishes, nothing after it is released, and the waiter and
  // on_done both see a cancelled DAG.
  Rng rng(47);
  const Job j = make_job(random_gaussian(32, 8, rng), 8, flat_ts_list(4, 1));
  ASSERT_EQ(j.graph->size(), 4);
  DagPoolOptions opts;
  opts.threads = 2;
  DagPool pool(opts);
  std::promise<DagId> id_promise;
  std::shared_future<DagId> id_future = id_promise.get_future().share();
  std::mutex mu;
  std::vector<std::int32_t> ran;
  bool done_cancelled = false;
  DagSubmitOptions sopts;
  sopts.on_done = [&](DagId, bool cancelled) { done_cancelled = cancelled; };
  const DagId id = pool.submit(
      j.graph, 8,
      [&](std::int32_t idx, int, TileWorkspace&) {
        {
          std::lock_guard<std::mutex> lk(mu);
          ran.push_back(idx);
        }
        if (idx == 1) pool.port(id_future.get()).cancel();
      },
      std::move(sopts));
  id_promise.set_value(id);
  EXPECT_FALSE(pool.wait(id));
  pool.wait_all();  // on_done runs on the worker, after wait() may return
  EXPECT_TRUE(done_cancelled);
  EXPECT_EQ(ran, (std::vector<std::int32_t>{0, 1}));
  EXPECT_EQ(pool.stats().dags_cancelled, 1);
  EXPECT_EQ(pool.stats().tasks_executed, 2);
}

TEST(DagPool, ObservedDagBooksWaitsWithinItsLife) {
  // One 50 ms task on four workers: the three workers with nothing to run
  // wait through it. Each worker's booked idle and terminal waits are
  // non-negative and fit in the DAG's life, and together they hold at
  // least a share of those three waits.
  DagPoolOptions opts;
  opts.threads = 4;
  DagPool pool(opts);
  DagWaits waits;
  DagSubmitOptions sopts;
  sopts.waits = &waits;
  const double t0 = monotonic_seconds();
  const DagId id = pool.submit(
      one_task_graph(), 1,
      [](std::int32_t, int, TileWorkspace&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      },
      std::move(sopts));
  EXPECT_TRUE(pool.wait(id));
  const double life = monotonic_seconds() - t0;
  ASSERT_EQ(waits.idle.size(), 4u);
  ASSERT_EQ(waits.terminal.size(), 4u);
  double booked = 0.0;
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_GE(waits.idle[w], 0.0) << "worker " << w;
    EXPECT_GE(waits.terminal[w], 0.0) << "worker " << w;
    EXPECT_LE(waits.idle[w] + waits.terminal[w], life + 1e-9)
        << "worker " << w;
    booked += waits.idle[w] + waits.terminal[w];
  }
  EXPECT_GT(booked, 0.025);
}

TEST(DagPool, ConcurrentSubmittersGetTheirOwnResults) {
  // Four client threads submit and wait on one pool at once, as the
  // executor's callers do on its shared pools; each gets the sequential
  // bits of its own input.
  constexpr int kClients = 4, kRounds = 3;
  Rng rng(53);
  std::vector<Matrix> inputs;
  std::vector<Job> jobs;
  for (int i = 0; i < kClients * kRounds; ++i) {
    inputs.push_back(random_gaussian(32, 16, rng));
    jobs.push_back(make_job(inputs.back(), 4, flat_ts_list(8, 4)));
  }
  DagPoolOptions opts;
  opts.threads = 2;
  DagPool pool(opts);
  std::atomic<int> incomplete{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        const Job& j = jobs[static_cast<std::size_t>(c * kRounds + r)];
        if (!pool.wait(pool.submit(j.graph, 4, exec_fn(j.f))))
          incomplete.fetch_add(1);
      }
    });
  for (auto& t : clients) t.join();
  EXPECT_EQ(incomplete.load(), 0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const QRFactors seq = qr_factorize_sequential(inputs[i], 4,
                                                  flat_ts_list(8, 4));
    EXPECT_EQ(max_abs_diff(extract_r(seq).view(), extract_r(*jobs[i].f).view()),
              0.0)
        << "job " << i;
  }
}

}  // namespace
}  // namespace hqr
