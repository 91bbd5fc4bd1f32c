#include "runtime/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <span>
#include <thread>

#include "common/stopwatch.hpp"
#include "runtime/ready_task.hpp"
#include "runtime/steal_deque.hpp"

namespace hqr {

namespace {

// Per-worker accumulators, merged into RunStats after the join — workers
// never contend on shared stats.
struct WorkerStats {
  long long executed = 0;
  long long reuse_hits = 0;
  long long queue_pops = 0;
  long long local_hits = 0;
  long long steals = 0;
  long long steal_fails = 0;
  long long overflow_pops = 0;
  long long locality_hits = 0;
  long long locality_misses = 0;
  long long depth_samples = 0;
  long long depth_samples_sum = 0;
  std::array<long long, kKernelTypeCount> tasks_by_kernel{};
  std::array<double, kKernelTypeCount> seconds_by_kernel{};
  double busy_seconds = 0.0;
  double idle_seconds = 0.0;
  double terminal_wait_seconds = 0.0;
};

// The host's topology: sysfs is read once per process.
const CpuTopology& host_topology() {
  static const CpuTopology topo = CpuTopology::detect();
  return topo;
}

// One run of a task graph: dependency counters, the ready set and the
// worker loop. Ready tasks are ordered by critical-path depth. A worker
// keeps the deepest successor its task made ready (data reuse) and pushes
// the rest onto its own fixed-capacity Chase–Lev deque in ascending
// priority, so the owner's LIFO pop always takes its highest-priority ready
// task; thieves steal the oldest (lowest-priority) end. Tasks that do not
// fit the deque — and the graph roots and remote releases, which no worker
// owns — go to a small mutex-protected priority heap shared by all workers,
// preserving the critical-path ordering across workers for anything that
// spills. Idle workers try: own deque, overflow heap, victims; only after
// a full failed sweep do they block (timed, so a missed wakeup costs
// microseconds, never a deadlock). With a PartitionView the engine runs
// its rank's slice and is the RemotePort remote completions arrive through.
class Engine final : public RemotePort {
 public:
  // Called by a worker to run task `idx` with its private workspace.
  using ExecuteFn = std::function<void(std::int32_t, TileWorkspace&)>;

  Engine(const TaskGraph& graph, const ExecutorOptions& opts,
         const PartitionView* view)
      : graph_(graph),
        opts_(opts),
        view_(view),
        timed_(opts.trace != nullptr || opts.metrics != nullptr),
        deques_(static_cast<std::size_t>(opts.threads)),
        lanes_(static_cast<std::size_t>(opts.threads)) {
    if (opts.trace_origin >= 0.0) clock_.set_origin(opts.trace_origin);
    const int n = graph.size();
    local_tasks_ = n;
    if (view_) {
      local_tasks_ = 0;
      for (int i = 0; i < n; ++i)
        if (is_local(i)) ++local_tasks_;
    }
    remaining_.store(local_tasks_, std::memory_order_relaxed);
    npred_ = std::make_unique<std::atomic<int>[]>(static_cast<std::size_t>(n));
    // Producer lane per task, written at release time. Roots and remote
    // releases keep -1: no local producer, never a locality hit.
    producer_ =
        std::make_unique<std::atomic<int>[]>(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      npred_[i].store(graph.num_predecessors(i), std::memory_order_relaxed);
      producer_[i].store(-1, std::memory_order_relaxed);
    }
    // Priorities come from the critical path of the FULL graph even in
    // partition mode, matching what the cluster simulator assumes every
    // node schedules by.
    graph_.critical_path(unit_weight_duration, &depth_);
    for (std::size_t t = 0; t < lanes_.size(); ++t)
      lanes_[t].rng = 0x9e3779b97f4a7c15ULL * (t + 1) + 1;
    if (opts.threads > 1) {
      if (opts.topology == nullptr) {
        host_topo_ = WorkerTopology::build(host_topology(), opts.threads);
        topo_ = &host_topo_;
      } else if (opts.topology->workers == opts.threads) {
        topo_ = opts.topology;
      }
      // On a single-domain machine the near-first order cannot differ from
      // the plain randomized sweep, so keep the latter (topo_ still feeds
      // the locality counters).
      use_victim_order_ = topo_ != nullptr && topo_->multi_domain;
    }
    if (opts_.trace) opts_.trace->ensure_lanes(opts_.threads);
    if (opts_.metrics) {
      for (int t = 0; t < kKernelTypeCount; ++t)
        kernel_hist_[t] = &opts_.metrics->histogram(
            "exec.task_seconds." + kernel_name(static_cast<KernelType>(t)));
    }
    std::vector<std::int32_t> roots;
    for (std::int32_t r : graph_.roots())
      if (!view_ || is_local(r)) roots.push_back(r);
    push_overflow(roots);
  }

  long long local_tasks() const { return local_tasks_; }

  // Remote producer done (payload applied): release its local successors.
  // Called from the communication thread while workers run; no worker owns
  // the batch, so it goes to the shared priority heap.
  void remote_complete(std::int32_t producer) override {
    std::vector<std::int32_t> batch;
    for (std::int32_t s : graph_.successors(producer)) {
      if (!is_local(s)) continue;
      if (npred_[s].fetch_sub(1, std::memory_order_acq_rel) == 1)
        batch.push_back(s);
    }
    if (batch.empty()) return;
    push_overflow(batch);
    if (sleepers_.load(std::memory_order_acquire) > 0) cv_.notify_all();
  }

  void cancel() override {
    cancelled_.store(true, std::memory_order_release);
    wake_all();
  }

  void run(int b, const ExecuteFn& execute,
           std::vector<WorkerStats>& per_thread) {
    const int threads = opts_.threads;
    per_thread.assign(static_cast<std::size_t>(threads), {});
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads) - 1);
    for (int t = 1; t < threads; ++t)
      pool.emplace_back([&, t] { worker(b, execute, t, per_thread[t]); });
    worker(b, execute, 0, per_thread[0]);
    for (auto& th : pool) th.join();
  }

 private:
  struct alignas(64) LaneState {
    std::uint64_t rng = 0;
  };

  void worker(int b, const ExecuteFn& execute, int lane, WorkerStats& stats) {
    TileWorkspace ws(b);
    std::vector<std::int32_t> released;
    std::int32_t next = -1;
    for (;;) {
      std::int32_t idx;
      if (next >= 0) {
        idx = next;
        ++stats.reuse_hits;
      } else if (timed_) {
        const double wait0 = clock_.seconds();
        idx = acquire(lane, stats);
        const double waited = clock_.seconds() - wait0;
        // The acquire that observes completion is the termination barrier,
        // not a stall — book it separately so idle stays a contention
        // signal.
        if (idx >= 0)
          stats.idle_seconds += waited;
        else
          stats.terminal_wait_seconds += waited;
      } else {
        idx = acquire(lane, stats);
      }
      next = -1;
      if (idx < 0) return;
      if (cancelled_.load(std::memory_order_acquire)) return;

      const KernelType type = graph_.op(idx).type;
      if (timed_) {
        const double t0 = clock_.seconds();
        execute(idx, ws);
        const double t1 = clock_.seconds();
        const double d = t1 - t0;
        stats.busy_seconds += d;
        stats.seconds_by_kernel[kernel_type_index(type)] += d;
        if (opts_.metrics) kernel_hist_[kernel_type_index(type)]->observe(d);
        if (opts_.trace) {
          const KernelOp& op = graph_.op(idx);
          opts_.trace->record(lane, {idx, lane, /*sub=*/0, type,
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
      if (view_ && view_->on_complete) view_->on_complete(idx);

      // Release successors; keep the best newly-ready one local and hand
      // the rest to the deque in one batch. Remote-owned successors are
      // skipped: their owner releases them when this task's payload lands.
      std::int32_t keep = -1;
      released.clear();
      for (std::int32_t s : graph_.successors(idx)) {
        if (view_ && !is_local(s)) continue;
        if (npred_[s].fetch_sub(1, std::memory_order_acq_rel) == 1) {
          if (keep < 0 || depth_[s] > depth_[keep]) {
            if (keep >= 0) released.push_back(keep);
            keep = s;
          } else {
            released.push_back(s);
          }
        }
      }
      release(lane, released);
      next = keep;

      if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        wake_all();  // everything done: wake sleepers to exit
    }
  }

  void release(int lane, std::vector<std::int32_t>& batch) {
    if (batch.empty()) return;
    // Ascending priority: the best task ends up on top of the LIFO deque.
    std::sort(batch.begin(), batch.end(),
              [&](std::int32_t x, std::int32_t y) {
                if (depth_[x] != depth_[y]) return depth_[x] < depth_[y];
                return x > y;
              });
    // Tag each task with its producing lane before it becomes visible to
    // thieves; the tag drives the locality hit/miss accounting at acquire.
    for (std::int32_t idx : batch)
      producer_[idx].store(lane, std::memory_order_release);
    StealDeque& own = deques_[static_cast<std::size_t>(lane)];
    for (std::int32_t idx : batch)
      if (!own.push(idx)) push_overflow({&idx, 1});
    if (sleepers_.load(std::memory_order_acquire) > 0) {
      if (batch.size() > 1)
        cv_.notify_all();
      else
        cv_.notify_one();
    }
  }

  // Blocks until a task is available (returns its index) or every task has
  // finished or the run was cancelled (returns -1).
  std::int32_t acquire(int lane, WorkerStats& ws) {
    StealDeque& own = deques_[static_cast<std::size_t>(lane)];
    const int nw = opts_.threads;
    for (;;) {
      std::int32_t idx = own.pop();
      if (idx >= 0) {
        ++ws.local_hits;
        ++ws.queue_pops;
        ++ws.depth_samples;
        ws.depth_samples_sum += own.size();
        count_locality(lane, idx, ws);
        return idx;
      }
      if (finished()) return -1;
      if (overflow_size_.load(std::memory_order_acquire) > 0 &&
          (idx = pop_overflow(lane, ws)) >= 0)
        return idx;
      // Steal sweep: topology-near victims first when the machine has
      // distinct cache domains, the plain randomized order otherwise; a
      // couple of passes over the other workers before giving up and
      // blocking.
      const std::vector<int>* order =
          use_victim_order_
              ? &topo_->victim_order[static_cast<std::size_t>(lane)]
              : nullptr;
      for (int attempt = 0; nw > 1 && attempt < 2 * nw; ++attempt) {
        if (finished()) return -1;
        const int victim =
            order ? (*order)[static_cast<std::size_t>(attempt) % order->size()]
                  : pick_victim(lane, nw);
        idx = deques_[static_cast<std::size_t>(victim)].steal();
        if (idx >= 0) {
          ++ws.steals;
          ++ws.queue_pops;
          count_locality(lane, idx, ws);
          return idx;
        }
        ++ws.steal_fails;
        if (overflow_size_.load(std::memory_order_acquire) > 0 &&
            (idx = pop_overflow(lane, ws)) >= 0)
          return idx;
      }
      // Nothing visible anywhere: block until a release (or completion)
      // wakes us. The timeout is a backstop against the benign
      // release-vs-register race — it bounds a missed wakeup, the common
      // path is an explicit notify.
      std::unique_lock<std::mutex> lk(mu_);
      sleepers_.fetch_add(1, std::memory_order_acq_rel);
      if (!finished()) cv_.wait_for(lk, std::chrono::microseconds(200));
      sleepers_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  bool finished() const {
    return remaining_.load(std::memory_order_acquire) == 0 ||
           cancelled_.load(std::memory_order_acquire);
  }

  // Taking the sleep mutex orders this notify after any sleeper's check, so
  // the wakeup cannot be lost between check and block.
  void wake_all() {
    { std::lock_guard<std::mutex> lk(mu_); }
    cv_.notify_all();
  }

  int pick_victim(int lane, int nw) {
    std::uint64_t& s = lanes_[static_cast<std::size_t>(lane)].rng;
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    const int v = static_cast<int>(s % static_cast<std::uint64_t>(nw - 1));
    return v >= lane ? v + 1 : v;  // uniform over the other workers
  }

  void push_overflow(std::span<const std::int32_t> tasks) {
    std::lock_guard<std::mutex> lk(overflow_mu_);
    for (std::int32_t idx : tasks) overflow_.push({depth_[idx], idx});
    overflow_size_.store(static_cast<std::int64_t>(overflow_.size()),
                         std::memory_order_release);
  }

  std::int32_t pop_overflow(int lane, WorkerStats& ws) {
    std::int32_t idx = -1;
    {
      std::lock_guard<std::mutex> lk(overflow_mu_);
      if (overflow_.empty()) return -1;
      idx = overflow_.top().idx;
      overflow_.pop();
      overflow_size_.store(static_cast<std::int64_t>(overflow_.size()),
                           std::memory_order_release);
    }
    ++ws.overflow_pops;
    ++ws.queue_pops;
    count_locality(lane, idx, ws);
    return idx;
  }

  // Every successful pop is classified: hit when the producing lane shares
  // the acquirer's LLC domain, miss otherwise (untagged tasks — roots and
  // remote releases — always miss).
  void count_locality(int lane, std::int32_t idx, WorkerStats& ws) {
    if (topo_ == nullptr) return;
    const int p = producer_[idx].load(std::memory_order_acquire);
    if (p >= 0 && topo_->near(lane, p))
      ++ws.locality_hits;
    else
      ++ws.locality_misses;
  }

  bool is_local(std::int32_t i) const {
    return (*view_->task_rank)[static_cast<std::size_t>(i)] == view_->my_rank;
  }

  const TaskGraph& graph_;
  const ExecutorOptions& opts_;
  const PartitionView* view_;
  const bool timed_;
  long long local_tasks_ = 0;
  Stopwatch clock_;  // shared time base for trace lanes and busy/idle splits
  std::array<obs::Histogram*, kKernelTypeCount> kernel_hist_{};
  std::unique_ptr<std::atomic<int>[]> npred_;
  std::unique_ptr<std::atomic<int>[]> producer_;
  std::vector<double> depth_;
  std::atomic<long long> remaining_{0};
  std::atomic<bool> cancelled_{false};

  std::vector<StealDeque> deques_;
  std::vector<LaneState> lanes_;
  const WorkerTopology* topo_ = nullptr;
  WorkerTopology host_topo_;
  bool use_victim_order_ = false;

  std::mutex overflow_mu_;
  std::priority_queue<ReadyTask> overflow_;
  std::atomic<std::int64_t> overflow_size_{0};

  // Sleep/wake machinery for workers that found no work anywhere.
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<int> sleepers_{0};
};

// Runs `graph` (with a view: the view's slice of it) on opts.threads
// workers and merges the per-worker counters.
RunStats run_graph(const TaskGraph& graph, int b,
                   const Engine::ExecuteFn& execute,
                   const ExecutorOptions& opts,
                   const PartitionView* view = nullptr,
                   const std::function<void(RemotePort&)>& port_ready = {},
                   const std::function<void()>& before_teardown = {}) {
  HQR_CHECK(opts.threads >= 1, "need at least one thread");
  if (opts.trace) opts.trace->set_labels("worker", "thread");
  Stopwatch sw;
  Engine engine(graph, opts, view);
  if (port_ready) port_ready(engine);
  RunStats stats;
  stats.threads = opts.threads;
  std::vector<WorkerStats> per_thread;
  engine.run(b, execute, per_thread);
  // The port must outlive every thread that can call into it.
  if (before_teardown) before_teardown();
  stats.seconds = sw.seconds();
  stats.total_tasks = engine.local_tasks();

  const bool timed = opts.trace != nullptr || opts.metrics != nullptr;
  stats.tasks_per_thread.reserve(per_thread.size());
  if (timed) {
    stats.busy_seconds_per_thread.reserve(per_thread.size());
    stats.idle_seconds_per_thread.reserve(per_thread.size());
    stats.terminal_wait_seconds_per_thread.reserve(per_thread.size());
  }
  long long depth_sum = 0, depth_samples = 0;
  for (const WorkerStats& w : per_thread) {
    stats.tasks_per_thread.push_back(w.executed);
    stats.reuse_hits += w.reuse_hits;
    stats.queue_pops += w.queue_pops;
    stats.local_hits += w.local_hits;
    stats.steals += w.steals;
    stats.steal_fails += w.steal_fails;
    stats.overflow_pops += w.overflow_pops;
    stats.locality_hits += w.locality_hits;
    stats.locality_misses += w.locality_misses;
    depth_sum += w.depth_samples_sum;
    depth_samples += w.depth_samples;
    for (int t = 0; t < kKernelTypeCount; ++t) {
      stats.tasks_by_kernel[t] += w.tasks_by_kernel[t];
      stats.seconds_by_kernel[t] += w.seconds_by_kernel[t];
    }
    if (timed) {
      stats.busy_seconds_per_thread.push_back(w.busy_seconds);
      stats.idle_seconds_per_thread.push_back(w.idle_seconds);
      stats.terminal_wait_seconds_per_thread.push_back(
          w.terminal_wait_seconds);
    }
  }
  if (depth_samples > 0)
    stats.avg_ready_depth =
        static_cast<double>(depth_sum) / static_cast<double>(depth_samples);

  if (opts.metrics) {
    obs::MetricsRegistry& m = *opts.metrics;
    m.counter("exec.tasks").add(stats.total_tasks);
    m.counter("exec.reuse_hits").add(stats.reuse_hits);
    m.counter("exec.queue_pops").add(stats.queue_pops);
    m.counter("exec.local_hits").add(stats.local_hits);
    m.counter("exec.steals").add(stats.steals);
    m.counter("exec.steal_fails").add(stats.steal_fails);
    m.counter("exec.overflow_pops").add(stats.overflow_pops);
    m.counter("exec.locality_hits").add(stats.locality_hits);
    m.counter("exec.locality_misses").add(stats.locality_misses);
    m.gauge("exec.seconds").add(stats.seconds);
    m.gauge("exec.avg_ready_depth").set(stats.avg_ready_depth);
    for (std::size_t t = 0; t < per_thread.size(); ++t) {
      m.gauge("exec.worker." + std::to_string(t) + ".busy_seconds")
          .add(per_thread[t].busy_seconds);
      m.gauge("exec.worker." + std::to_string(t) + ".idle_seconds")
          .add(per_thread[t].idle_seconds);
      m.gauge("exec.worker." + std::to_string(t) + ".terminal_wait_seconds")
          .add(per_thread[t].terminal_wait_seconds);
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
