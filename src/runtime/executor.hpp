// Shared-memory task executor ("DAGuE-lite", paper §IV-C).
//
// Executes the real numeric kernels of a QR factorization following the
// task-graph dependencies with a pool of worker threads. Scheduling policy
// mirrors the paper's description: ready tasks are ordered by a priority
// (critical-path depth), and a worker preferentially continues with a
// successor of the task it just finished (data-reuse heuristic), falling
// back to its own ready deque and stealing from other workers when that
// runs dry. A single locked priority queue is retained as an ablation
// baseline (SchedulerKind::Global).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/factorization.hpp"
#include "dag/task_graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/topology.hpp"

namespace hqr {

// Ready-task management backend (the --sched={steal,global} ablation).
enum class SchedulerKind {
  // Per-worker Chase–Lev deques with randomized stealing and a shared
  // priority overflow heap (default; decentralized, scales with workers).
  Steal,
  // One mutex+condvar priority queue shared by all workers (the original
  // scheduler, kept as the differential baseline).
  Global,
};

// Parses "steal"/"global"; throws hqr::Error on anything else.
SchedulerKind scheduler_kind_from_name(const std::string& name);
const char* scheduler_kind_name(SchedulerKind kind);

struct RunStats {
  double seconds = 0.0;
  int threads = 0;
  std::vector<long long> tasks_per_thread;
  long long total_tasks = 0;

  // Scheduler counters (always collected; no clock reads involved).
  // Invariant: reuse_hits + queue_pops == total_tasks under both backends;
  // under SchedulerKind::Steal, queue_pops further splits into
  // local_hits + steals + overflow_pops (all zero under Global).
  long long reuse_hits = 0;   // tasks taken via the data-reuse keep
  long long queue_pops = 0;   // tasks acquired from any ready queue/deque
  long long local_hits = 0;     // popped from the worker's own deque
  long long steals = 0;         // stolen from another worker's deque
  long long steal_fails = 0;    // empty-victim or lost-race steal attempts
  long long overflow_pops = 0;  // taken from the shared overflow heap

  // Locality accounting (Steal backend only): every queue pop is a hit when
  // the task's producing worker shares the acquiring worker's LLC domain
  // (own-deque pops included), a miss otherwise (including tasks with no
  // local producer, e.g. roots and remote releases).
  long long locality_hits = 0;
  long long locality_misses = 0;
  double locality_hit_rate() const {
    const long long total = locality_hits + locality_misses;
    return total > 0
               ? static_cast<double>(locality_hits) / static_cast<double>(total)
               : 0.0;
  }
  double avg_ready_depth = 0.0;  // mean ready-depth sampled at local pops
  std::array<long long, kKernelTypeCount> tasks_by_kernel{};

  // Fraction of tasks whose input tiles stayed warm in the worker.
  double reuse_hit_rate() const {
    return total_tasks > 0
               ? static_cast<double>(reuse_hits) / static_cast<double>(total_tasks)
               : 0.0;
  }

  // Timing breakdowns — populated only when the run was observed (a trace
  // or metrics sink was attached), so the unobserved hot path never reads
  // the clock per task.
  std::array<double, kKernelTypeCount> seconds_by_kernel{};
  std::vector<double> busy_seconds_per_thread;  // executing kernels
  std::vector<double> idle_seconds_per_thread;  // waiting for ready work
  // Wait in the final acquire that observed "all tasks done" — the
  // termination barrier. Reported separately so it never inflates idle
  // (stall) numbers in the analyzer.
  std::vector<double> terminal_wait_seconds_per_thread;
};

struct ExecutorOptions {
  int threads = 1;
  // Use critical-path depth as priority (true) or FIFO order (false) —
  // the scheduler-priority ablation bench flips this.
  bool priority_scheduling = true;
  // Data-reuse heuristic: keep one ready successor local to the worker.
  bool data_reuse = true;
  // Inner block size for the kernels (0 = default_ib(b)).
  int ib = 0;
  // Ready-task backend: per-worker stealing deques (default) or the single
  // locked priority queue baseline.
  SchedulerKind scheduler = SchedulerKind::Steal;
  // Locality-aware stealing (Steal backend): order steal victims
  // topology-near-first so stolen tasks are more likely to have warm tiles.
  // Degrades to the plain randomized sweep on single-domain machines.
  bool locality_stealing = true;
  // Worker topology override for tests/benchmarks; null = detect the host
  // topology once and pin lanes round-robin.
  const WorkerTopology* topology = nullptr;
  // Observability sinks (obs/). Null = disabled; enabling costs two clock
  // reads per task plus lock-free per-lane appends / atomic updates.
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  // Time zero for trace timestamps, as a monotonic_seconds() value; < 0
  // (default) uses engine construction time. The distributed runtime pins
  // every component of a rank — executor lanes and the communication
  // thread's flow events — to one shared origin so the per-rank trace is
  // internally consistent before clock alignment shifts it cluster-wide.
  double trace_origin = -1.0;
};

// Executes all kernels of `f` (its kernel list must match `graph`'s ops) in
// dependency order using `opts.threads` workers. Thread-safe: kernels on
// dependent tiles are ordered by the graph; independent kernels touch
// disjoint tiles.
RunStats execute_parallel(QRFactors& f, const TaskGraph& graph,
                          const ExecutorOptions& opts);

// ---- Partitioned execution (the distributed runtime's per-rank engine) ---

// Restricts a run to the slice of the graph owned by one rank. The engine
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

// Thread-safe handle into a running partitioned engine, valid until
// execute_partition returns.
class RemotePort {
 public:
  virtual ~RemotePort() = default;
  // A remote producer finished and its payload was applied to local tiles:
  // release its local successors into the ready set.
  virtual void remote_complete(std::int32_t producer) = 0;
  // Abort the run: workers stop picking up tasks and drain out.
  virtual void cancel() = 0;
};

// Runs the my_rank slice of `graph` on `opts.threads` workers. `port_ready`
// is called once, before workers start, with the port the communication
// thread uses to feed remote completions in. `before_teardown` is called
// after the last local task finished but while the engine (and thus the
// port) is still alive — join any thread that might touch the port there.
// Returns when every local task ran (or the run was cancelled);
// RunStats::total_tasks counts local tasks only.
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
