#include "runtime/dag_pool.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <queue>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "common/stopwatch.hpp"

namespace hqr {

namespace {

// Ready-queue entry: max-heap by critical-path priority, the lower task
// index first among equals.
struct ReadyTask {
  double priority;
  std::int32_t idx;

  bool operator<(const ReadyTask& o) const {
    if (priority != o.priority) return priority < o.priority;
    return idx > o.idx;
  }
};

struct DagState {
  DagId id = 0;
  std::shared_ptr<const TaskGraph> graph;
  int b = 1;
  DagPool::ExecuteFn exec;
  int priority = 0;
  std::function<void(DagId, bool)> on_done;
  std::vector<bool> remote;  // tasks the pool never runs
  DagWaits* waits = nullptr;
  double admitted = 0.0;  // clock at admission; read for observed DAGs only

  std::vector<int> npred;       // outstanding predecessors per task
  std::vector<double> depth;    // critical-path priority within the DAG
  std::priority_queue<ReadyTask> ready;
  long long remaining = 0;  // local tasks not yet executed
  long long delivered = 0;  // tasks handed to workers (the fairness key)
  long long inflight = 0;   // tasks currently executing
  bool cancelled = false;
  bool done = false;
  std::exception_ptr error;  // the first task exception; it cancelled the DAG

  bool is_remote(std::int32_t i) const {
    return !remote.empty() && remote[static_cast<std::size_t>(i)];
  }
};

// A finished DAG, kept until wait() reads it.
struct Outcome {
  bool completed = false;
  std::exception_ptr error;
};

// A worker's wait for ready work, as observed DAGs book it.
struct WorkerWait {
  bool waiting = false;
  // Clock at the wait's start, or at the first observed DAG's admission
  // during it; < 0 = untimed.
  double since = -1.0;
};

}  // namespace

struct DagPool::Impl {
  explicit Impl(const DagPoolOptions& o) : opts(o) {
    HQR_CHECK(opts.threads >= 1, "DagPool needs at least one worker");
    worker_waits.resize(static_cast<std::size_t>(opts.threads));
    workers.reserve(static_cast<std::size_t>(opts.threads));
    for (int t = 0; t < opts.threads; ++t)
      workers.emplace_back([this, t] { worker(t); });
  }

  ~Impl() {
    // Cancel whatever is still running, then let workers drain out.
    std::vector<std::shared_ptr<DagState>> leftover;
    {
      std::lock_guard<std::mutex> lk(mu);
      stopping = true;
      for (auto& dag : active) leftover.push_back(dag);
    }
    for (auto& dag : leftover) cancel_dag(dag->id);
    {
      std::lock_guard<std::mutex> lk(mu);
      work_cv.notify_all();
    }
    for (auto& th : workers) th.join();
  }

  // Highest admission priority first; among equals the DAG served the
  // fewest tasks so far; final tie by admission order (`active` keeps it).
  std::shared_ptr<DagState> pick_best_locked() {
    std::shared_ptr<DagState> best;
    for (auto& dag : active) {
      if (dag->ready.empty()) continue;
      if (!best || dag->priority > best->priority ||
          (dag->priority == best->priority && dag->delivered < best->delivered))
        best = dag;
    }
    return best;
  }

  void push_ready_locked(DagState& dag, std::int32_t idx) {
    dag.ready.push({dag.depth[static_cast<std::size_t>(idx)], idx});
    ++total_ready;
  }

  // Counts `idx` done for its local successors and queues those that
  // became ready; wakes as many workers as tasks were queued.
  void release_locked(DagState& dag, std::int32_t idx) {
    int released = 0;
    for (std::int32_t s : dag.graph->successors(idx)) {
      if (dag.is_remote(s)) continue;
      if (--dag.npred[static_cast<std::size_t>(s)] == 0) {
        push_ready_locked(dag, s);
        ++released;
      }
    }
    if (released == 1)
      work_cv.notify_one();
    else if (released > 1)
      work_cv.notify_all();
  }

  void cancel_locked(DagState& dag) {
    if (dag.cancelled) return;
    dag.cancelled = true;
    total_ready -= static_cast<long long>(dag.ready.size());
    dag.ready = {};
  }

  // Finish check; fires on_done outside the lock. `lk` must be held.
  void maybe_finish_locked(std::unique_lock<std::mutex>& lk,
                           const std::shared_ptr<DagState>& dag) {
    if (dag->done || dag->inflight > 0) return;
    if (!dag->cancelled && dag->remaining > 0) return;
    dag->done = true;
    const bool cancelled = dag->cancelled;
    if (dag->waits) {
      // Workers still waiting were waiting for this completion.
      --observed_live;
      const double now = monotonic_seconds();
      for (std::size_t w = 0; w < worker_waits.size(); ++w)
        if (worker_waits[w].waiting && worker_waits[w].since >= 0.0)
          dag->waits->terminal[w] +=
              now - std::max(worker_waits[w].since, dag->admitted);
    }
    live.erase(dag->id);
    active.erase(std::find(active.begin(), active.end(), dag));
    outcome.emplace(dag->id, Outcome{!cancelled, dag->error});
    if (cancelled)
      ++pool_stats.dags_cancelled;
    else
      ++pool_stats.dags_completed;
    if (opts.metrics) {
      opts.metrics
          ->counter(cancelled ? "dagpool.dags_cancelled"
                              : "dagpool.dags_completed")
          .add(1);
      opts.metrics->gauge("dagpool.active_dags")
          .set(static_cast<double>(active.size()));
    }
    done_cv.notify_all();
    // Wake idle workers too: at shutdown they wait for active to empty.
    work_cv.notify_all();
    auto cb = std::move(dag->on_done);
    if (cb) {
      // wait_all() must not return while a callback is mid-flight: the
      // callback may still chain a submit() or touch per-request state, and
      // callers use wait_all() as the license to tear the pool down.
      ++callbacks_inflight;
      lk.unlock();
      cb(dag->id, cancelled);
      lk.lock();
      if (--callbacks_inflight == 0) done_cv.notify_all();
    }
  }

  // Blocks until notified. The clock is read only while an observed DAG is
  // live. Each observed DAG books the part of the wait that fell in its
  // life: here as idle, or in maybe_finish_locked as terminal.
  void wait_for_work(std::unique_lock<std::mutex>& lk, int w) {
    WorkerWait& ww = worker_waits[static_cast<std::size_t>(w)];
    ww.waiting = true;
    ww.since = observed_live > 0 ? monotonic_seconds() : -1.0;
    work_cv.wait(lk);
    ww.waiting = false;
    if (ww.since < 0.0) return;
    const double now = monotonic_seconds();
    for (const auto& dag : active)
      if (dag->waits)
        dag->waits->idle[static_cast<std::size_t>(w)] +=
            now - std::max(ww.since, dag->admitted);
  }

  void worker(int w) {
    // A few workspaces per worker, LRU by tile size — mixed-b tenants reuse
    // scratch instead of reallocating per task, but b is client-controlled,
    // so the cache is capped: a tenant rotating tile sizes cannot grow
    // O(b^2) scratch per worker without bound.
    constexpr std::size_t kMaxCachedWorkspaces = 4;
    std::vector<std::pair<int, std::unique_ptr<TileWorkspace>>> ws_cache;
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      std::shared_ptr<DagState> dag = pick_best_locked();
      if (!dag) {
        if (stopping && active.empty()) return;
        wait_for_work(lk, w);
        continue;
      }
      const std::int32_t idx = dag->ready.top().idx;
      dag->ready.pop();
      --total_ready;
      ++dag->delivered;
      ++dag->inflight;
      lk.unlock();

      std::exception_ptr error;
      try {
        // Workspace lookup/construction sits inside the try: b is sized by
        // the client, so an allocation failure here must poison only the
        // offending DAG, exactly like a throwing kernel.
        TileWorkspace* ws = nullptr;
        for (std::size_t i = 0; i < ws_cache.size(); ++i) {
          if (ws_cache[i].first == dag->b) {
            std::rotate(ws_cache.begin() + static_cast<std::ptrdiff_t>(i),
                        ws_cache.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                        ws_cache.end());
            ws = ws_cache.back().second.get();
            break;
          }
        }
        if (!ws) {
          auto fresh = std::make_unique<TileWorkspace>(dag->b);
          if (ws_cache.size() >= kMaxCachedWorkspaces)
            ws_cache.erase(ws_cache.begin());
          ws_cache.emplace_back(dag->b, std::move(fresh));
          ws = ws_cache.back().second.get();
        }
        dag->exec(idx, w, *ws);
      } catch (...) {
        // A throwing task poisons only its own DAG, never the pool: the
        // DAG is cancelled and its waiter gets the exception.
        error = std::current_exception();
      }

      lk.lock();
      --dag->inflight;
      ++pool_stats.tasks_executed;
      if (opts.metrics) opts.metrics->counter("dagpool.tasks").add(1);
      if (error && !dag->cancelled) {
        dag->error = error;
        cancel_locked(*dag);
      }
      if (!dag->cancelled) {
        --dag->remaining;
        release_locked(*dag, idx);
      }
      maybe_finish_locked(lk, dag);
    }
  }

  DagId submit_dag(std::shared_ptr<const TaskGraph> graph, int b,
                   ExecuteFn exec, DagSubmitOptions sopts) {
    HQR_CHECK(graph != nullptr, "DagPool::submit needs a graph");
    HQR_CHECK(b >= 1, "tile size must be >= 1");
    const int n = graph->size();
    HQR_CHECK(sopts.remote.empty() ||
                  sopts.remote.size() == static_cast<std::size_t>(n),
              "remote flags must cover the graph");
    auto dag = std::make_shared<DagState>();
    dag->graph = std::move(graph);
    dag->b = b;
    dag->exec = std::move(exec);
    dag->priority = sopts.priority;
    dag->on_done = std::move(sopts.on_done);
    dag->remote = std::move(sopts.remote);
    dag->waits = sopts.waits;
    dag->npred.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      dag->npred[static_cast<std::size_t>(i)] = dag->graph->num_predecessors(i);
      if (!dag->is_remote(i)) ++dag->remaining;
    }
    // Priorities come from the whole graph's critical path, also for a
    // partition: the cluster simulator assumes every node schedules so.
    dag->graph->critical_path(unit_weight_duration, &dag->depth);
    if (dag->waits) {
      dag->waits->idle.assign(static_cast<std::size_t>(opts.threads), 0.0);
      dag->waits->terminal.assign(static_cast<std::size_t>(opts.threads), 0.0);
    }

    std::unique_lock<std::mutex> lk(mu);
    HQR_CHECK(!stopping, "DagPool is shutting down");
    if (opts.max_active_dags > 0 && !sopts.bypass_admission_limit &&
        static_cast<int>(active.size()) >= opts.max_active_dags) {
      std::ostringstream os;
      os << "DagPool overloaded: " << active.size() << " active DAGs (limit "
         << opts.max_active_dags << ")";
      throw PoolOverloaded(os.str());
    }
    dag->id = next_id++;
    if (dag->waits) {
      ++observed_live;
      dag->admitted = monotonic_seconds();
      for (WorkerWait& ww : worker_waits)
        if (ww.waiting && ww.since < 0.0) ww.since = dag->admitted;
    }
    int seeded = 0;
    for (int i = 0; i < n; ++i) {
      if (dag->npred[static_cast<std::size_t>(i)] == 0 && !dag->is_remote(i)) {
        push_ready_locked(*dag, i);
        ++seeded;
      }
    }
    active.push_back(dag);
    live.emplace(dag->id, dag);
    ++pool_stats.dags_submitted;
    pool_stats.max_active_dags = std::max(
        pool_stats.max_active_dags, static_cast<int>(active.size()));
    if (opts.metrics) {
      opts.metrics->counter("dagpool.dags_submitted").add(1);
      opts.metrics->gauge("dagpool.active_dags")
          .set(static_cast<double>(active.size()));
    }
    if (seeded == 1)
      work_cv.notify_one();
    else if (seeded > 1)
      work_cv.notify_all();
    const DagId id = dag->id;
    maybe_finish_locked(lk, dag);  // a DAG with no local task is done now
    return id;
  }

  bool wait_dag(DagId id) {
    std::unique_lock<std::mutex> lk(mu);
    done_cv.wait(lk, [&] { return live.find(id) == live.end(); });
    auto it = outcome.find(id);
    HQR_CHECK(it != outcome.end(), "unknown DagId " << id);
    const Outcome o = std::move(it->second);
    outcome.erase(it);
    lk.unlock();
    if (o.error) std::rethrow_exception(o.error);
    return o.completed;
  }

  void wait_all_dags() {
    std::unique_lock<std::mutex> lk(mu);
    // Also wait out in-flight on_done callbacks: a callback that chains a
    // submit() re-populates `active` before callbacks_inflight drops, so
    // this predicate cannot miss chained work.
    done_cv.wait(lk, [&] { return active.empty() && callbacks_inflight == 0; });
  }

  bool cancel_dag(DagId id) {
    std::unique_lock<std::mutex> lk(mu);
    auto it = live.find(id);
    if (it == live.end()) return false;
    auto dag = it->second;
    cancel_locked(*dag);
    maybe_finish_locked(lk, dag);
    return true;
  }

  void remote_complete(DagId id, std::int32_t producer) {
    std::lock_guard<std::mutex> lk(mu);
    auto it = live.find(id);
    if (it == live.end() || it->second->cancelled) return;
    release_locked(*it->second, producer);
  }

  DagPoolOptions opts;
  mutable std::mutex mu;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::vector<std::shared_ptr<DagState>> active;  // unfinished, in order
  std::unordered_map<DagId, std::shared_ptr<DagState>> live;
  std::unordered_map<DagId, Outcome> outcome;  // finished, not yet waited
  DagId next_id = 1;
  bool stopping = false;
  long long total_ready = 0;
  long long callbacks_inflight = 0;  // on_done invocations not yet returned
  int observed_live = 0;             // live DAGs with a DagWaits sink
  std::vector<WorkerWait> worker_waits;
  DagPoolStats pool_stats;
  std::vector<std::thread> workers;
};

DagPool::DagPool(const DagPoolOptions& opts)
    : impl_(std::make_unique<Impl>(opts)) {}

DagPool::~DagPool() = default;

DagId DagPool::submit(std::shared_ptr<const TaskGraph> graph, int b,
                      ExecuteFn execute, DagSubmitOptions opts) {
  return impl_->submit_dag(std::move(graph), b, std::move(execute),
                           std::move(opts));
}

bool DagPool::wait(DagId id) { return impl_->wait_dag(id); }

void DagPool::wait_all() { impl_->wait_all_dags(); }

bool DagPool::cancel(DagId id) { return impl_->cancel_dag(id); }

RemotePort DagPool::port(DagId id) { return RemotePort(*this, id); }

int DagPool::active_dags() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return static_cast<int>(impl_->active.size());
}

long long DagPool::ready_tasks() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->total_ready;
}

DagPoolStats DagPool::stats() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->pool_stats;
}

void RemotePort::remote_complete(std::int32_t producer) {
  pool_->impl_->remote_complete(id_, producer);
}

void RemotePort::cancel() { pool_->cancel(id_); }

}  // namespace hqr
