// Multi-DAG worker pool: many task graphs share one set of worker threads.
//
// The single-DAG engines in runtime/executor.hpp spin up a thread pool per
// invocation and run exactly one graph to completion — the right shape for
// a batch job, the wrong one for a server that must execute many
// independent factorizations of wildly different shapes concurrently. The
// DagPool keeps `threads` workers alive for its whole lifetime and admits
// task graphs dynamically:
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
//     tasks order by critical-path depth, as in the single-DAG engines.
//   * (dag, task)-namespaced external completions — the RemotePort analogue
//     for pool DAGs binds the DAG id into the port, so concurrent DAGs
//     whose task-id spaces overlap (they all start at 0) cannot collide.
//
// Scheduling is a single mutex-protected multi-queue rather than the
// work-stealing deques of the single-DAG engine: admission fairness needs a
// global view of every DAG's ready set, and small problems reach the pool
// as one task each (serve/batch.hpp: a batch of thousands of tiny QRs is
// one DAG of one task per problem), so the per-task pick stays cheap
// against the work it schedules. The single-DAG
// execute_parallel path is untouched and stays bit-identical (pinned by
// tests/runtime/test_dag_pool.cpp, which also pins pool-vs-single-run
// bit-identity — kernels write disjoint regions in dependency order, so any
// valid schedule produces the same bits).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dag/task_graph.hpp"
#include "kernels/tile_kernels.hpp"
#include "obs/metrics.hpp"
#include "runtime/executor.hpp"

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

struct DagSubmitOptions {
  // Admission priority: higher drains first; ties are served fairly
  // (fewest-tasks-delivered DAG first).
  int priority = 0;
  // Task ids executed outside the pool (the distributed partition case):
  // they are never run by a worker, and their successors become ready only
  // when reported through the DAG's port(). Each listed id must be a valid
  // task of the graph.
  std::vector<std::int32_t> external_tasks;
  // Invoked exactly once, on the worker that finished the DAG's last task
  // (or on the thread that observed cancellation complete). May call back
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
};

struct DagPoolStats {
  long long dags_submitted = 0;
  long long dags_completed = 0;
  long long dags_cancelled = 0;
  long long tasks_executed = 0;
  // High-watermark of DAGs simultaneously admitted and unfinished.
  int max_active_dags = 0;
};

class DagPool {
 public:
  // Runs task `idx` of the submitted graph using the worker's scratch
  // workspace (sized for the b the DAG was submitted with).
  using ExecuteFn = std::function<void(std::int32_t, TileWorkspace&)>;

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
  // cancelled. Ids of finished DAGs stay valid indefinitely (the pool keeps
  // a per-DAG outcome record; a long-lived server retains ~tens of bytes
  // per request).
  bool wait(DagId id);
  // Blocks until no DAG is active AND every on_done callback has returned
  // (including DAGs those callbacks chained via submit()). After wait_all()
  // the pool can be destroyed without racing a late callback.
  void wait_all();

  // Best-effort cancellation: queued tasks of the DAG are dropped, running
  // ones finish. Returns true when the DAG had not already finished. The
  // on_done callback still fires (with cancelled = true).
  bool cancel(DagId id);

  // External-completion port for one DAG, namespaced by (dag id, task id):
  // remote_complete(producer) releases only this DAG's successors of
  // `producer`, never another DAG's task with the same id. Valid until the
  // pool is destroyed; calls after the DAG finished are ignored.
  std::unique_ptr<RemotePort> port(DagId id);

  // Instantaneous gauges for the serving layer.
  int active_dags() const;
  long long ready_tasks() const;

  DagPoolStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hqr
