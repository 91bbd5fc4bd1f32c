// Shared-memory task executor ("DAGuE-lite", paper §IV-C).
//
// Executes the real numeric kernels of a QR factorization following the
// task-graph dependencies. Every call runs its graph as one DAG on a
// process-wide DagPool (runtime/dag_pool.hpp) with `threads` long-lived
// workers, one pool per thread count: ready tasks are ordered by
// critical-path depth, as the paper's scheduler orders them, and no call
// starts threads or builds scratch. A pool is created on first use and
// belongs to the process that created it; a forked child builds its own
// and never touches its parent's. A task must not call back into a pool
// of the same thread count: its worker would wait on itself.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/factorization.hpp"
#include "dag/task_graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/dag_pool.hpp"

namespace hqr {

struct RunStats {
  double seconds = 0.0;
  int threads = 0;
  std::vector<long long> tasks_per_thread;
  long long total_tasks = 0;
  std::array<long long, kKernelTypeCount> tasks_by_kernel{};

  // Kept only because hqr_bench reads them (runtime.steals,
  // runtime.steal_fails, runtime.reuse_hit_rate): the pool has no keep
  // slot and does not steal, so they read 0.
  long long reuse_hits = 0;
  long long steals = 0;
  long long steal_fails = 0;
  double reuse_hit_rate() const { return 0.0; }

  // Timing breakdowns — populated only when the run was observed (a trace
  // or metrics sink was attached), so the unobserved hot path never reads
  // the clock per task.
  std::array<double, kKernelTypeCount> seconds_by_kernel{};
  std::vector<double> busy_seconds_per_thread;  // executing kernels
  std::vector<double> idle_seconds_per_thread;  // waiting for ready work
  // The wait that the run's completion ended — the termination barrier.
  // Reported separately so it never inflates idle (stall) numbers in the
  // analyzer.
  std::vector<double> terminal_wait_seconds_per_thread;
};

struct ExecutorOptions {
  int threads = 1;
  // Inner block size for the kernels (0 = default_ib(b)).
  int ib = 0;
  // Observability sinks (obs/). Null = disabled; enabling costs two clock
  // reads per task plus lock-free per-lane appends / atomic updates.
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  // Time zero for trace timestamps, as a monotonic_seconds() value; < 0
  // (default) uses the time the call started. The distributed runtime pins
  // every component of a rank — executor lanes and the communication
  // thread's flow events — to one shared origin so the per-rank trace is
  // internally consistent before clock alignment shifts it cluster-wide.
  double trace_origin = -1.0;
};

// Executes all kernels of `f` (its kernel list must match `graph`'s ops) in
// dependency order using `opts.threads` workers. Thread-safe: kernels on
// dependent tiles are ordered by the graph; independent kernels touch
// disjoint tiles. A kernel's exception cancels the run and is rethrown
// here once the running kernels have drained.
RunStats execute_parallel(QRFactors& f, const TaskGraph& graph,
                          const ExecutorOptions& opts);

// ---- Partitioned execution (the distributed runtime's per-rank slice) ----

// Restricts a run to the slice of the graph owned by one rank. The pool
// seeds/executes only tasks with task_rank[i] == my_rank; a task whose
// predecessors include remote tasks becomes ready only after the caller
// reports those producers done through RemotePort::remote_complete (i.e.
// after their payload arrived over the wire and was applied).
struct PartitionView {
  // Owning rank per task (CommPlan::node()); size must match the graph.
  const std::vector<std::int32_t>* task_rank = nullptr;
  int my_rank = 0;
  // Invoked on the executing worker after a local task's kernel ran and
  // *before* its successors are released. At that point the task's output
  // regions are stable (any later writer is a successor), so the callback
  // may pack them onto the wire without copying under a lock.
  std::function<void(std::int32_t)> on_complete;
};

// Runs the my_rank slice of `graph` on `opts.threads` workers. `port_ready`
// is called once, right after the slice was submitted (local roots may
// already be running), with the port (runtime/dag_pool.hpp) the
// communication thread uses to feed remote completions in; its cancel()
// aborts the run. `before_teardown` is called after the last local task
// finished and before the call returns or rethrows — join any thread that
// might touch the port there. Returns when every local task ran (or the
// run was cancelled) and rethrows a task's exception, on_complete's
// included, as execute_parallel does; RunStats::total_tasks counts local
// tasks only.
RunStats execute_partition(QRFactors& f, const TaskGraph& graph,
                           const ExecutorOptions& opts,
                           const PartitionView& view,
                           const std::function<void(RemotePort&)>& port_ready,
                           const std::function<void()>& before_teardown = {});

// Convenience: factorize with the parallel runtime.
QRFactors qr_factorize_parallel(const Matrix& a, int b,
                                const EliminationList& list,
                                const ExecutorOptions& opts,
                                RunStats* stats = nullptr);

// Parallel Q formation (dorgqr analogue): builds the economy Q through the
// runtime using the Q-application task graph.
Matrix build_q_parallel(const QRFactors& f, const ExecutorOptions& opts,
                        RunStats* stats = nullptr);

// Parallel Q / Q^T application (dormqr analogue) to a tiled matrix in
// place; c must share tile rows and tile size with the factorization.
// Columns at or past c.n() are neither read nor written.
void apply_q_parallel(const QRFactors& f, Trans trans, TiledMatrix& c,
                      const ExecutorOptions& opts, RunStats* stats = nullptr);

// The same on a dense C with whole tile rows (c.rows == f.a().padded_m(),
// any number of columns), tiled as execute_apply_kernel's dense overload
// describes. Bit-identical to the TiledMatrix form on the same values.
void apply_q_parallel(const QRFactors& f, Trans trans, MatrixView c,
                      const ExecutorOptions& opts, RunStats* stats = nullptr);

}  // namespace hqr
