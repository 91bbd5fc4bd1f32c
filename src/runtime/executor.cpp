#include "runtime/executor.hpp"

#include <pthread.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "common/stopwatch.hpp"

namespace hqr {

namespace {

// The process's pools, one per thread count, created on first use and
// never destroyed: idle workers block on the pool's condition variable
// until the process exits.
struct SharedPools {
  std::mutex mu;
  std::map<int, std::unique_ptr<DagPool>> by_threads;
};
// Set once at first use and reset in a forked child, both while no other
// thread can read it.
SharedPools* g_pools = nullptr;

DagPool& shared_pool(int threads) {
  static std::once_flag once;
  std::call_once(once, [] {
    g_pools = new SharedPools;
    // A forked child holds only the thread that forked: its parent's
    // workers are gone and their locks may be held. The child forgets the
    // parent's pools without touching them and builds its own.
    HQR_CHECK(::pthread_atfork(nullptr, nullptr,
                               [] { g_pools = new SharedPools; }) == 0,
              "cannot register the pools' fork handler");
  });
  std::lock_guard<std::mutex> lk(g_pools->mu);
  std::unique_ptr<DagPool>& pool = g_pools->by_threads[threads];
  if (!pool) pool = std::make_unique<DagPool>(DagPoolOptions{.threads = threads});
  return *pool;
}

// Per-worker tallies of one run, merged into RunStats after the wait; each
// worker writes only its own slot.
struct alignas(64) WorkerStats {
  long long executed = 0;
  std::array<long long, kKernelTypeCount> tasks_by_kernel{};
  std::array<double, kKernelTypeCount> seconds_by_kernel{};
  double busy_seconds = 0.0;
};

// Runs `graph` (with a view: the view's slice of it) as one DAG on the
// shared pool of opts.threads workers and merges the per-worker counters.
RunStats run_graph(const TaskGraph& graph, int b,
                   const std::function<void(std::int32_t, TileWorkspace&)>& execute,
                   const ExecutorOptions& opts,
                   const PartitionView* view = nullptr,
                   const std::function<void(RemotePort&)>& port_ready = {},
                   const std::function<void()>& before_teardown = {}) {
  HQR_CHECK(opts.threads >= 1, "need at least one thread");
  Stopwatch sw;
  // Shared time base for trace lanes and the busy split.
  Stopwatch clock;
  if (opts.trace_origin >= 0.0) clock.set_origin(opts.trace_origin);
  const bool timed = opts.trace != nullptr || opts.metrics != nullptr;
  if (opts.trace) {
    opts.trace->set_labels("worker", "thread");
    opts.trace->ensure_lanes(opts.threads);
  }
  std::array<obs::Histogram*, kKernelTypeCount> kernel_hist{};
  if (opts.metrics) {
    for (int t = 0; t < kKernelTypeCount; ++t)
      kernel_hist[t] = &opts.metrics->histogram(
          "exec.task_seconds." + kernel_name(static_cast<KernelType>(t)));
  }

  DagSubmitOptions sopts;
  DagWaits waits;
  if (timed) sopts.waits = &waits;
  long long local_tasks = graph.size();
  if (view) {
    sopts.remote.resize(static_cast<std::size_t>(graph.size()));
    for (int i = 0; i < graph.size(); ++i) {
      sopts.remote[static_cast<std::size_t>(i)] =
          (*view->task_rank)[static_cast<std::size_t>(i)] != view->my_rank;
      if (sopts.remote[static_cast<std::size_t>(i)]) --local_tasks;
    }
  }

  std::vector<WorkerStats> per_thread(static_cast<std::size_t>(opts.threads));
  const auto task = [&](std::int32_t idx, int worker, TileWorkspace& ws) {
    WorkerStats& stats = per_thread[static_cast<std::size_t>(worker)];
    const KernelType type = graph.op(idx).type;
    if (timed) {
      const double t0 = clock.seconds();
      execute(idx, ws);
      const double t1 = clock.seconds();
      const double d = t1 - t0;
      stats.busy_seconds += d;
      stats.seconds_by_kernel[kernel_type_index(type)] += d;
      if (opts.metrics) kernel_hist[kernel_type_index(type)]->observe(d);
      if (opts.trace) {
        const KernelOp& op = graph.op(idx);
        opts.trace->record(worker, {idx, worker, /*sub=*/0, type,
                                    /*on_accel=*/false, op.row, op.piv, op.k,
                                    op.j, t0, t1});
      }
    } else {
      execute(idx, ws);
    }
    ++stats.executed;
    ++stats.tasks_by_kernel[kernel_type_index(type)];
    // Partition mode: hand the finished task to the caller (it packs the
    // output regions onto the wire) before any successor can run and
    // overwrite them.
    if (view && view->on_complete) view->on_complete(idx);
  };

  DagPool& pool = shared_pool(opts.threads);
  // The caller owns the graph and outlives the DAG: a non-owning pointer.
  const DagId id =
      pool.submit(std::shared_ptr<const TaskGraph>(
                      std::shared_ptr<const TaskGraph>(), &graph),
                  b, task, std::move(sopts));
  // From here the DAG refers to this frame: wait for it on every path.
  RemotePort port = pool.port(id);
  std::exception_ptr error;
  try {
    if (port_ready) port_ready(port);
  } catch (...) {
    error = std::current_exception();
    port.cancel();
  }
  try {
    pool.wait(id);
  } catch (...) {
    if (!error) error = std::current_exception();
  }
  // Join whatever may still call into the port before returning.
  if (before_teardown) before_teardown();
  if (error) std::rethrow_exception(error);

  RunStats stats;
  stats.seconds = sw.seconds();
  stats.threads = opts.threads;
  stats.total_tasks = local_tasks;
  stats.tasks_per_thread.reserve(per_thread.size());
  for (const WorkerStats& w : per_thread) {
    stats.tasks_per_thread.push_back(w.executed);
    for (int t = 0; t < kKernelTypeCount; ++t) {
      stats.tasks_by_kernel[t] += w.tasks_by_kernel[t];
      stats.seconds_by_kernel[t] += w.seconds_by_kernel[t];
    }
  }
  if (timed) {
    for (const WorkerStats& w : per_thread)
      stats.busy_seconds_per_thread.push_back(w.busy_seconds);
    stats.idle_seconds_per_thread = std::move(waits.idle);
    stats.terminal_wait_seconds_per_thread = std::move(waits.terminal);
  }

  if (opts.metrics) {
    obs::MetricsRegistry& m = *opts.metrics;
    m.counter("exec.tasks").add(stats.total_tasks);
    m.gauge("exec.seconds").add(stats.seconds);
    for (std::size_t t = 0; t < per_thread.size(); ++t) {
      m.gauge("exec.worker." + std::to_string(t) + ".busy_seconds")
          .add(stats.busy_seconds_per_thread[t]);
      m.gauge("exec.worker." + std::to_string(t) + ".idle_seconds")
          .add(stats.idle_seconds_per_thread[t]);
      m.gauge("exec.worker." + std::to_string(t) + ".terminal_wait_seconds")
          .add(stats.terminal_wait_seconds_per_thread[t]);
    }
  }
  return stats;
}

}  // namespace

RunStats execute_parallel(QRFactors& f, const TaskGraph& graph,
                          const ExecutorOptions& opts) {
  HQR_CHECK(static_cast<int>(f.kernels().size()) == graph.size(),
            "kernel list / graph mismatch");
  return run_graph(
      graph, f.b(),
      [&](std::int32_t idx, TileWorkspace& ws) {
        execute_kernel(f.kernels()[idx], f, ws);
      },
      opts);
}

RunStats execute_partition(QRFactors& f, const TaskGraph& graph,
                           const ExecutorOptions& opts,
                           const PartitionView& view,
                           const std::function<void(RemotePort&)>& port_ready,
                           const std::function<void()>& before_teardown) {
  HQR_CHECK(static_cast<int>(f.kernels().size()) == graph.size(),
            "kernel list / graph mismatch");
  HQR_CHECK(view.task_rank != nullptr &&
                static_cast<int>(view.task_rank->size()) == graph.size(),
            "partition view task_rank must cover the graph");
  return run_graph(
      graph, f.b(),
      [&](std::int32_t idx, TileWorkspace& ws) {
        execute_kernel(f.kernels()[idx], f, ws);
      },
      opts, &view, port_ready, before_teardown);
}

QRFactors qr_factorize_parallel(const Matrix& a, int b,
                                const EliminationList& list,
                                const ExecutorOptions& opts, RunStats* stats) {
  TiledMatrix tiled = TiledMatrix::from_matrix(a, b);
  const int mt = tiled.mt(), nt = tiled.nt();
  KernelList kernels = expand_to_kernels(list, mt, nt);
  TaskGraph graph(kernels, mt, nt);
  QRFactors f(std::move(tiled), std::move(kernels), opts.ib);
  RunStats s = execute_parallel(f, graph, opts);
  if (stats) *stats = s;
  return f;
}

Matrix build_q_parallel(const QRFactors& f, const ExecutorOptions& opts,
                        RunStats* stats) {
  TiledMatrix q(f.a().padded_m(),
                std::min(f.a().padded_m(), f.a().padded_n()), f.b());
  for (int d = 0; d < std::min(q.padded_m(), q.padded_n()); ++d)
    q.set(d, d, 1.0);
  const KernelList ops =
      q_apply_ops(f, Trans::No, q.nt(), /*economy=*/true);
  TaskGraph graph = TaskGraph::apply_graph(ops, f.mt(), q.nt());
  RunStats s = run_graph(
      graph, f.b(),
      [&](std::int32_t idx, TileWorkspace& ws) {
        execute_apply_kernel(ops[idx], f, Trans::No, q, ws);
      },
      opts);
  if (stats) *stats = s;
  return q.to_padded_matrix();
}

void apply_q_parallel(const QRFactors& f, Trans trans, TiledMatrix& c,
                      const ExecutorOptions& opts, RunStats* stats) {
  HQR_CHECK(c.mt() == f.mt() && c.b() == f.b(),
            "apply_q_parallel: tile row/size mismatch");
  const KernelList ops = q_apply_ops(f, trans, c.nt());
  TaskGraph graph = TaskGraph::apply_graph(ops, f.mt(), c.nt());
  RunStats s = run_graph(
      graph, f.b(),
      [&](std::int32_t idx, TileWorkspace& ws) {
        execute_apply_kernel(ops[idx], f, trans, c, ws);
      },
      opts);
  if (stats) *stats = s;
}

void apply_q_parallel(const QRFactors& f, Trans trans, MatrixView c,
                      const ExecutorOptions& opts, RunStats* stats) {
  HQR_CHECK(c.rows == f.a().padded_m(),
            "apply_q_parallel: C has " << c.rows << " rows, the factors "
                                       << f.a().padded_m());
  const int nt_c = TiledMatrix::tile_count(c.cols, f.b());
  const KernelList ops = q_apply_ops(f, trans, nt_c);
  TaskGraph graph = TaskGraph::apply_graph(ops, f.mt(), nt_c);
  RunStats s = run_graph(
      graph, f.b(),
      [&](std::int32_t idx, TileWorkspace& ws) {
        execute_apply_kernel(ops[idx], f, trans, c, ws);
      },
      opts);
  if (stats) *stats = s;
}

}  // namespace hqr
