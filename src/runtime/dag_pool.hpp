// Multi-DAG worker pool: many task graphs share one set of long-lived
// worker threads. This is the library's one ready-task scheduler. The
// server submits its requests to a pool of its own, and execute_parallel,
// the Q builders and execute_partition (runtime/executor.hpp) run every
// call as one DAG on a process-wide pool per thread count, so no call
// starts threads or builds scratch. The pool admits task graphs
// dynamically:
//
//   * per-DAG completion tracking — every submitted graph carries its own
//     dependency counters, ready queue, and remaining count; a DAG's
//     completion callback fires on the worker that ran its last task.
//   * per-DAG root injection — roots are seeded at submit() time while
//     other DAGs are mid-flight; nothing is recomputed globally.
//   * fair/priority admission — when several DAGs have ready tasks, the
//     worker takes from the highest-priority one; among equals, from the
//     DAG that has been served the fewest tasks so far (so one huge
//     factorization cannot starve a stream of small ones). Within a DAG,
//     tasks order by critical-path depth.
//   * partitions — a DAG may leave some of its tasks to another process
//     (the distributed runtime's remote tasks). The pool never runs them;
//     their successors are released through the DAG's RemotePort once
//     their output has arrived.
//
// Scheduling is a single mutex-protected multi-queue. Admission fairness
// needs a global view of every DAG's ready set, small problems reach the
// pool as one task each (serve/batch.hpp), and on the measured shapes the
// locked queue ran within the quartiles of the per-call work-stealing
// engine it replaced (EXPERIMENTS.md, "One ready-task scheduler").
// Kernels write disjoint regions in dependency order, so any valid
// schedule produces the same bits (tests/runtime/test_dag_pool.cpp and
// test_scheduler_equivalence.cpp pin this).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "dag/task_graph.hpp"
#include "kernels/tile_kernels.hpp"
#include "obs/metrics.hpp"

namespace hqr {

using DagId = std::uint64_t;

// Thrown by submit() when the pool is at max_active_dags — distinguishable
// from teardown (plain hqr::Error) so servers can answer with a typed
// "overloaded, retry later" instead of "shutting down".
class PoolOverloaded : public Error {
 public:
  using Error::Error;
};

struct DagPoolOptions {
  int threads = 1;
  // Admission bound: submit() throws PoolOverloaded while this many DAGs
  // are active (0 = unbounded). Backpressure for serving layers — a client
  // burst degrades into typed refusals instead of unbounded queue growth.
  int max_active_dags = 0;
  // Optional sinks: dagpool.* counters/gauges (tasks, completions, ready
  // depth). Null = disabled.
  obs::MetricsRegistry* metrics = nullptr;
};

// Where each worker's waits for ready work went while one DAG was live,
// indexed by worker. A wait counts only when it began while the DAG was
// live. The wait the DAG's completion ended is terminal (the termination
// barrier), every other one idle.
struct DagWaits {
  std::vector<double> idle;
  std::vector<double> terminal;
};

struct DagSubmitOptions {
  // Admission priority: higher drains first; ties are served fairly
  // (fewest-tasks-delivered DAG first).
  int priority = 0;
  // Invoked exactly once, on the worker that finished the DAG's last task
  // (or on the thread that observed cancellation complete, or on the
  // submitting thread for a DAG with no task to run). May call back
  // into the pool (e.g. submit a follow-up DAG); runs outside the pool
  // lock. A chained submit can race pool teardown — submit() throws
  // hqr::Error once the destructor has started, so callbacks that chain
  // must be prepared to catch it. wait_all() does not return while any
  // on_done is still running.
  std::function<void(DagId, bool cancelled)> on_done;
  // Skip the max_active_dags admission check: for internal continuation
  // DAGs (e.g. a server chaining Q formation onto a finished factorization)
  // that must be able to drain even when the pool refuses new work.
  bool bypass_admission_limit = false;
  // Tasks the pool never runs, one flag per task (empty = none): a
  // partition's remote tasks. Their local successors become ready once
  // the DAG's RemotePort reports them complete.
  std::vector<bool> remote;
  // Non-null: while this DAG is live the pool reads the clock around its
  // workers' waits and books them here, one entry per worker; read it
  // after wait() returns. Null (an unobserved DAG): no clock reads.
  DagWaits* waits = nullptr;
};

struct DagPoolStats {
  long long dags_submitted = 0;
  long long dags_completed = 0;
  long long dags_cancelled = 0;
  long long tasks_executed = 0;
  // High-watermark of DAGs simultaneously admitted and unfinished.
  int max_active_dags = 0;
};

class RemotePort;

class DagPool {
 public:
  // Runs task `idx` of the submitted graph on worker `worker` (in
  // [0, threads)) with that worker's scratch workspace (sized for the b
  // the DAG was submitted with).
  using ExecuteFn =
      std::function<void(std::int32_t idx, int worker, TileWorkspace&)>;

  explicit DagPool(const DagPoolOptions& opts);
  // Cancels every unfinished DAG and joins the workers. Prefer wait_all()
  // (or per-DAG wait) before destruction when results matter.
  ~DagPool();

  DagPool(const DagPool&) = delete;
  DagPool& operator=(const DagPool&) = delete;

  // Admits a graph: seeds its roots and returns immediately. The graph is
  // shared-ownership because the pool reads successor lists until the DAG
  // finishes; `b` sizes the per-worker TileWorkspace handed to `execute`.
  DagId submit(std::shared_ptr<const TaskGraph> graph, int b,
               ExecuteFn execute, DagSubmitOptions opts = {});

  // Blocks until the DAG finished; true = ran to completion, false =
  // cancelled. A task that throws cancels its DAG, and wait() rethrows
  // the first such exception once the DAG's running tasks have drained.
  // The pool keeps a finished DAG's outcome (~tens of bytes) until wait()
  // reads it, so each id is waited at most once.
  bool wait(DagId id);
  // Blocks until no DAG is active AND every on_done callback has returned
  // (including DAGs those callbacks chained via submit()). After wait_all()
  // the pool can be destroyed without racing a late callback.
  void wait_all();

  // Best-effort cancellation: queued tasks of the DAG are dropped, running
  // ones finish. Returns true when the DAG had not already finished. The
  // on_done callback still fires (with cancelled = true).
  bool cancel(DagId id);

  // The handle through which the DAG's remote completions arrive.
  RemotePort port(DagId id);

  // Instantaneous gauges for the serving layer.
  int active_dags() const;
  long long ready_tasks() const;

  DagPoolStats stats() const;

 private:
  friend class RemotePort;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Thread-safe handle into one DAG of a pool (DagPool::port), valid while
// the pool lives. Calls made after the DAG finished are ignored.
class RemotePort {
 public:
  // A remote task finished and its output was applied to local tiles:
  // release its local successors into the DAG's ready set.
  void remote_complete(std::int32_t producer);
  // Cancels the DAG, as DagPool::cancel does.
  void cancel();

 private:
  friend class DagPool;
  RemotePort(DagPool& pool, DagId id) : pool_(&pool), id_(id) {}

  DagPool* pool_;
  DagId id_;
};

}  // namespace hqr
