#include "serve/server.hpp"

#include <poll.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "core/factorization.hpp"
#include "core/incremental_tsqr.hpp"
#include "dag/task_graph.hpp"
#include "linalg/tiled_matrix.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "runtime/dag_pool.hpp"
#include "serve/batch.hpp"

namespace hqr::serve {

namespace {

using net::FrameHeader;
using net::Tag;

constexpr double kIoDeadlineSeconds = 60.0;

struct Response {
  Tag tag;
  std::int32_t id;
  std::vector<std::uint8_t> payload;
};

// Waits up to `ms` for the socket to become readable; false on timeout.
bool wait_readable(int fd, int ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  return ::poll(&pfd, 1, ms) > 0;
}

}  // namespace

// Connection state shared between the reader thread and the pool's
// completion callbacks. Kept behind a shared_ptr so a callback firing after
// the connection died just drops its response.
struct SessionShared {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Response> outbox;
  bool closed = false;  // reader gone: drop new responses, writer drains out
  std::unordered_map<std::int32_t, DagId> pending;  // request id -> DAG

  void push(Tag tag, std::int32_t id, std::vector<std::uint8_t> payload) {
    {
      std::lock_guard<std::mutex> lk(mu);
      if (closed) return;
      outbox.push_back({tag, id, std::move(payload)});
    }
    cv.notify_one();
  }
};

struct Server::Impl {
  explicit Impl(const ServerOptions& o) : opts(o) {
    DagPoolOptions popts;
    popts.threads = opts.threads;
    popts.max_active_dags = opts.limits.max_active_dags;
    popts.metrics = opts.metrics;
    pool = std::make_unique<DagPool>(popts);
    bound_port = opts.port;
    listener = net::tcp_listen(opts.host, &bound_port);
    accept_thread = std::thread([this] { accept_loop(); });
  }

  ~Impl() { stop_all(); }

  // ---- lifecycle ----

  void accept_loop() {
    while (!stopping.load(std::memory_order_acquire)) {
      reap_dead_sessions();
      if (!wait_readable(listener.get(), 200)) continue;
      net::Fd fd;
      try {
        fd = net::tcp_accept(listener.get(), monotonic_seconds() + 1.0);
      } catch (const Error&) {
        continue;  // raced with a client that gave up, or a spurious wake
      }
      net::set_tcp_nodelay(fd.get());
      auto session = std::make_unique<Session>();
      session->shared = std::make_shared<SessionShared>();
      session->fd = std::move(fd);
      Session* s = session.get();
      session->writer = std::thread([this, s] {
        writer_loop(s);
        s->writer_done.store(true, std::memory_order_release);
      });
      session->reader = std::thread([this, s] { reader_loop(s); });
      std::lock_guard<std::mutex> lk(sessions_mu);
      sessions.push_back(std::move(session));
    }
  }

  // Joins and frees sessions whose connection already died, so a
  // long-running server does not keep one fd and two thread handles per
  // connection ever accepted. Runs on the accept thread between accepts.
  // Draining (Shutdown) sessions are left for stop_all(), which flushes
  // their in-flight results before closing the outbox.
  void reap_dead_sessions() {
    std::vector<std::unique_ptr<Session>> done;
    {
      std::lock_guard<std::mutex> lk(sessions_mu);
      auto it = sessions.begin();
      while (it != sessions.end()) {
        Session& s = **it;
        if (s.dead.load(std::memory_order_acquire) &&
            s.writer_done.load(std::memory_order_acquire) &&
            !s.draining.load(std::memory_order_acquire)) {
          done.push_back(std::move(*it));
          it = sessions.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& s : done) {
      if (s->reader.joinable()) s->reader.join();
      if (s->writer.joinable()) s->writer.join();
    }
  }

  void stop_all() {
    bool expected = false;
    if (!stop_once.compare_exchange_strong(expected, true)) return;
    stopping.store(true, std::memory_order_release);
    request_stop();  // unblock wait()
    if (accept_thread.joinable()) accept_thread.join();
    std::vector<std::unique_ptr<Session>> doomed;
    {
      std::lock_guard<std::mutex> lk(sessions_mu);
      doomed.swap(sessions);
    }
    // Readers stop FIRST so nothing can be admitted after the drain below
    // (a reader stopped this way keeps its pending DAGs running — see
    // reader_loop's graceful path).
    for (auto& s : doomed) {
      s->stop.store(true, std::memory_order_release);
      if (s->reader.joinable()) s->reader.join();
    }
    // Drain in-flight DAGs AND their completion callbacks: wait_all()
    // returns only once every on_done has run, so each accepted request's
    // reply is in its outbox and no late callback (e.g. the chained
    // Q-formation submit) can race pool destruction.
    pool->wait_all();
    for (auto& s : doomed) {
      // Everything in flight has been delivered to the outbox by now;
      // close it so the writer exits once the tail is flushed.
      {
        std::lock_guard<std::mutex> lk(s->shared->mu);
        s->shared->closed = true;
      }
      s->shared->cv.notify_all();
      if (s->writer.joinable()) s->writer.join();
    }
    pool.reset();
  }

  void request_stop() {
    {
      std::lock_guard<std::mutex> lk(stop_mu);
      stop_requested = true;
    }
    stop_cv.notify_all();
  }

  void wait_stop() {
    std::unique_lock<std::mutex> lk(stop_mu);
    stop_cv.wait(lk, [&] { return stop_requested; });
  }

  // ---- per-connection threads ----

  struct Session {
    net::Fd fd;
    std::shared_ptr<SessionShared> shared;
    std::thread reader;
    std::thread writer;
    std::atomic<bool> stop{false};
    // Set when the reader exits because of a Shutdown request: in-flight
    // DAGs drain and their results flush instead of being cancelled.
    std::atomic<bool> draining{false};
    // Reader exited (connection gone or stop requested): the session is a
    // candidate for reaping once the writer finished too.
    std::atomic<bool> dead{false};
    std::atomic<bool> writer_done{false};
  };

  void writer_loop(Session* s) {
    auto& sh = *s->shared;
    for (;;) {
      Response r;
      {
        std::unique_lock<std::mutex> lk(sh.mu);
        sh.cv.wait(lk, [&] { return !sh.outbox.empty() || sh.closed; });
        if (sh.outbox.empty()) return;  // closed and fully drained
        r = std::move(sh.outbox.front());
        sh.outbox.pop_front();
      }
      FrameHeader h;
      h.tag = static_cast<std::uint32_t>(r.tag);
      h.src = 0;
      h.id = r.id;
      h.bytes = r.payload.size();
      std::uint8_t hb[net::kFrameHeaderBytes];
      net::encode_header(h, hb);
      try {
        const double deadline = monotonic_seconds() + kIoDeadlineSeconds;
        net::write_all(s->fd.get(), hb, sizeof(hb), deadline);
        if (!r.payload.empty())
          net::write_all(s->fd.get(), r.payload.data(), r.payload.size(),
                         deadline);
      } catch (const Error&) {
        // Peer gone mid-write: stop flushing, reader will notice EOF too.
        std::lock_guard<std::mutex> lk(sh.mu);
        sh.closed = true;
        sh.outbox.clear();
        return;
      }
    }
  }

  void reader_loop(Session* s) {
    // Streaming TSQR sessions are handled inline on this thread, so the
    // map needs no lock.
    struct StreamSession {
      std::unique_ptr<IncrementalTSQR> tsqr;
      std::int64_t tenant = 0;
    };
    std::unordered_map<std::int32_t, StreamSession> streams;

    while (!s->stop.load(std::memory_order_acquire)) {
      if (!wait_readable(s->fd.get(), 200)) continue;
      FrameHeader h;
      std::vector<std::uint8_t> payload;
      try {
        std::uint8_t hb[net::kFrameHeaderBytes];
        net::read_all(s->fd.get(), hb, sizeof(hb),
                      monotonic_seconds() + kIoDeadlineSeconds);
        h = net::decode_header(hb);
        if (h.magic != net::kMagic || h.version != net::kWireVersion ||
            h.header_bytes != net::kFrameHeaderBytes ||
            !net::valid_tag(h.tag))
          break;  // protocol desync: the stream cannot be trusted anymore
        if (h.bytes > static_cast<std::uint64_t>(opts.limits.max_payload_bytes)) {
          drain_payload(s, h.bytes);
          reject(s, h.id,
                 {ErrorCode::TooLarge,
                  "payload of " + std::to_string(h.bytes) +
                      " bytes exceeds server limit of " +
                      std::to_string(opts.limits.max_payload_bytes)});
          continue;
        }
        payload.resize(static_cast<std::size_t>(h.bytes));
        if (h.bytes > 0)
          net::read_all(s->fd.get(), payload.data(), payload.size(),
                        monotonic_seconds() + kIoDeadlineSeconds);
      } catch (const Error&) {
        break;  // EOF or read timeout: connection is gone
      }

      try {
        if (!dispatch(s, static_cast<Tag>(h.tag), h.id, payload, streams))
          break;  // Shutdown
      } catch (const Error& e) {
        // decode_* throws only on structurally broken payloads; anything
        // else reaching here is still a per-request failure, never fatal
        // to the server.
        reject(s, h.id, {ErrorCode::Malformed, e.what()});
      } catch (const std::exception& e) {
        reject(s, h.id, {ErrorCode::Internal, e.what()});
      }
    }

    // Connection died (EOF/desync): cancel what it still has in flight and
    // let the writer drain. The graceful paths — a Shutdown request or a
    // server-side stop() — instead leave the DAGs running: stop_all()
    // drains the pool, the completion callbacks enqueue their results, and
    // only then is the outbox closed.
    const bool graceful = s->draining.load(std::memory_order_acquire) ||
                          s->stop.load(std::memory_order_acquire);
    if (!graceful) {
      std::vector<DagId> orphans;
      {
        std::lock_guard<std::mutex> lk(s->shared->mu);
        s->shared->closed = true;
        for (const auto& [id, dag] : s->shared->pending)
          orphans.push_back(dag);
        s->shared->pending.clear();
      }
      for (DagId d : orphans) pool->cancel(d);
    }
    s->shared->cv.notify_all();
    s->dead.store(true, std::memory_order_release);
  }

  // Reads and discards an oversized declared payload in bounded chunks so
  // the frame boundary is preserved without allocating `bytes`.
  void drain_payload(Session* s, std::uint64_t bytes) {
    std::vector<std::uint8_t> chunk(64 * 1024);
    while (bytes > 0) {
      const std::size_t n =
          static_cast<std::size_t>(std::min<std::uint64_t>(bytes, chunk.size()));
      net::read_all(s->fd.get(), chunk.data(), n,
                    monotonic_seconds() + kIoDeadlineSeconds);
      bytes -= n;
    }
  }

  void reject(Session* s, std::int32_t id, const ErrorInfo& e) {
    std::vector<std::uint8_t> payload;
    encode_error(e, payload);
    s->shared->push(Tag::ErrorReply, id, std::move(payload));
    if (e.code != ErrorCode::Cancelled)
      requests_rejected.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- request handlers ----

  template <class Streams>
  bool dispatch(Session* s, Tag tag, std::int32_t id,
                const std::vector<std::uint8_t>& payload, Streams& streams) {
    switch (tag) {
      case Tag::SubmitQR: handle_submit_qr(s, id, payload); return true;
      case Tag::SubmitBatch: handle_submit_batch(s, id, payload); return true;
      case Tag::StreamOpen: handle_stream_open(s, id, payload, streams); return true;
      case Tag::StreamAppend: handle_stream_append(s, id, payload, streams); return true;
      case Tag::StreamQuery: handle_stream_query(s, id, streams); return true;
      case Tag::StreamClose: handle_stream_close(s, id, streams); return true;
      case Tag::Cancel: handle_cancel(s, id); return true;
      case Tag::Status: handle_status(s, id); return true;
      case Tag::Shutdown:
        s->draining.store(true, std::memory_order_release);
        s->shared->push(Tag::Bye, id, {});
        request_stop();
        return false;
      default:
        reject(s, id, {ErrorCode::Malformed,
                       std::string("unexpected request tag ") +
                           net::tag_name(tag)});
        return true;
    }
  }

  void note_tenant(std::int64_t tenant) {
    if (opts.metrics)
      opts.metrics
          ->counter("serve.tenant." + std::to_string(tenant) + ".requests")
          .add(1);
  }

  // Per-tenant admission: false (nothing recorded) when the tenant already
  // has max_inflight_per_tenant unfinished submits; otherwise records one.
  bool tenant_admit(std::int64_t tenant) {
    if (opts.limits.max_inflight_per_tenant <= 0) return true;
    std::lock_guard<std::mutex> lk(tenant_mu);
    int& n = tenant_inflight[tenant];
    if (n >= opts.limits.max_inflight_per_tenant) return false;
    ++n;
    return true;
  }

  // Pairs with every successful tenant_admit(), on whichever path resolves
  // the request (result, cancel, error, refused pool admission).
  void tenant_release(std::int64_t tenant) {
    if (opts.limits.max_inflight_per_tenant <= 0) return;
    std::lock_guard<std::mutex> lk(tenant_mu);
    auto it = tenant_inflight.find(tenant);
    if (it != tenant_inflight.end() && --it->second <= 0)
      tenant_inflight.erase(it);
  }

  void update_queue_gauges() {
    if (!opts.metrics) return;
    opts.metrics->gauge("serve.queue_depth")
        .set(static_cast<double>(pool->ready_tasks()));
    opts.metrics->gauge("serve.active_dags")
        .set(static_cast<double>(pool->active_dags()));
  }

  void observe_latency(const char* kind, double t0) {
    if (!opts.metrics) return;
    opts.metrics->histogram(std::string("serve.request_seconds.") + kind)
        .observe(monotonic_seconds() - t0);
  }

  bool admission_closed(Session* s, std::int32_t id) {
    if (!stopping.load(std::memory_order_acquire)) return false;
    reject(s, id, {ErrorCode::ShuttingDown, "server is shutting down"});
    return true;
  }

  void handle_submit_qr(Session* s, std::int32_t id,
                        const std::vector<std::uint8_t>& payload) {
    auto job = std::make_shared<QRJob>();
    if (auto e = decode_submit_qr(payload, opts.limits, job.get())) {
      reject(s, id, *e);
      return;
    }
    if (admission_closed(s, id)) return;
    if (!tenant_admit(job->tenant)) {
      requests_overloaded.fetch_add(1, std::memory_order_relaxed);
      reject(s, id,
             {ErrorCode::Overloaded,
              "tenant " + std::to_string(job->tenant) + " is at " +
                  std::to_string(opts.limits.max_inflight_per_tenant) +
                  " in-flight requests"});
      return;
    }
    note_tenant(job->tenant);

    auto tiled = TiledMatrix::from_matrix(job->a, job->b);
    const int mt = tiled.mt();
    const int nt = tiled.nt();
    KernelList kernels =
        expand_to_kernels(elimination_for(job->tree, mt, nt), mt, nt);
    auto graph = std::make_shared<const TaskGraph>(kernels, mt, nt);
    auto f = std::make_shared<QRFactors>(std::move(tiled), std::move(kernels),
                                         job->ib);

    const double t0 = monotonic_seconds();
    auto shared = s->shared;
    DagSubmitOptions sopts;
    sopts.priority = job->priority;
    sopts.on_done = [this, shared, id, f, job, t0](DagId, bool cancelled) {
      finish_qr_factor(shared, id, f, job, t0, cancelled);
    };
    // Register before submit: on_done can fire (and erase the entry) before
    // submit() even returns. A placeholder DagId 0 is never live, so a
    // Cancel racing this window is a harmless no-op. The accepted counter
    // also bumps pre-submit so completion can never outrun it in a Status
    // snapshot.
    {
      std::lock_guard<std::mutex> lk(shared->mu);
      shared->pending.emplace(id, DagId{0});
    }
    requests_accepted.fetch_add(1, std::memory_order_relaxed);
    DagId dag{0};
    try {
      dag = pool->submit(
          graph, job->b,
          [f](std::int32_t idx, int, TileWorkspace& ws) {
            execute_kernel(f->kernels()[static_cast<std::size_t>(idx)], *f, ws);
          },
          std::move(sopts));
    } catch (const PoolOverloaded& e) {
      requests_overloaded.fetch_add(1, std::memory_order_relaxed);
      finish_request_error(shared, id, job->tenant,
                           {ErrorCode::Overloaded, e.what()});
      return;
    } catch (const Error&) {
      // The pool refused admission (teardown raced this request).
      finish_request_error(shared, id, job->tenant,
                           {ErrorCode::ShuttingDown, "server is shutting down"});
      return;
    }
    {
      std::lock_guard<std::mutex> lk(shared->mu);
      auto it = shared->pending.find(id);
      if (it != shared->pending.end()) it->second = dag;
    }
    update_queue_gauges();
  }

  // Factor DAG finished: reply with R, or chain the Q-formation DAG.
  void finish_qr_factor(const std::shared_ptr<SessionShared>& shared,
                        std::int32_t id, const std::shared_ptr<QRFactors>& f,
                        const std::shared_ptr<QRJob>& job, double t0,
                        bool cancelled) {
    if (cancelled) {
      finish_request(shared, id, job->tenant, /*cancelled=*/true, {});
      return;
    }
    if (!job->want_q) {
      QROutcome res;
      res.r = extract_r(*f);
      std::vector<std::uint8_t> payload;
      encode_result(res, payload);
      observe_latency("qr", t0);
      finish_request(shared, id, job->tenant, /*cancelled=*/false,
                     std::move(payload));
      return;
    }
    // Q formation as a second DAG on the same pool (build_q, parallel): C
    // starts as the identity pattern, the factor kernels apply reversed.
    auto c = std::make_shared<TiledMatrix>(
        f->a().padded_m(), std::min(f->a().padded_m(), f->a().padded_n()),
        f->b());
    for (int d = 0; d < std::min(c->padded_m(), c->padded_n()); ++d)
      c->set(d, d, 1.0);
    auto ops = std::make_shared<const KernelList>(
        q_apply_ops(*f, Trans::No, c->nt(), /*economy=*/true));
    auto graph = std::make_shared<const TaskGraph>(
        TaskGraph::apply_graph(*ops, f->mt(), c->nt()));
    DagSubmitOptions sopts;
    sopts.priority = job->priority;
    // The Q DAG is the tail of an already-admitted request: it must drain
    // even when the pool is at max_active_dags refusing new submits.
    sopts.bypass_admission_limit = true;
    sopts.on_done = [this, shared, id, f, job, c, t0](DagId, bool q_cancelled) {
      if (q_cancelled) {
        finish_request(shared, id, job->tenant, /*cancelled=*/true, {});
        return;
      }
      QROutcome res;
      res.r = extract_r(*f);
      res.has_q = true;
      const Matrix padded = c->to_padded_matrix();
      const int qm = f->m();
      const int qn = std::min(f->m(), f->n());
      res.q = materialize(padded.block(0, 0, qm, qn));
      std::vector<std::uint8_t> payload;
      encode_result(res, payload);
      observe_latency("qr", t0);
      finish_request(shared, id, job->tenant, /*cancelled=*/false,
                     std::move(payload));
    };
    DagId dag{0};
    try {
      dag = pool->submit(
          graph, f->b(),
          [f, c, ops](std::int32_t idx, int, TileWorkspace& ws) {
            execute_apply_kernel((*ops)[static_cast<std::size_t>(idx)], *f,
                                 Trans::No, *c, ws);
          },
          std::move(sopts));
    } catch (const Error&) {
      // This chained submit runs inside the factor DAG's on_done, on a pool
      // worker: if the pool is being torn down, submit() throws — answer
      // with a typed error instead of letting it escape the worker thread
      // (which would std::terminate the whole server).
      finish_request_error(shared, id, job->tenant,
                           {ErrorCode::ShuttingDown, "server is shutting down"});
      return;
    }
    // Re-point the pending entry so Cancel aims at the live DAG.
    std::lock_guard<std::mutex> lk(shared->mu);
    auto it = shared->pending.find(id);
    if (it != shared->pending.end()) it->second = dag;
  }

  void finish_request(const std::shared_ptr<SessionShared>& shared,
                      std::int32_t id, std::int64_t tenant, bool cancelled,
                      std::vector<std::uint8_t> result_payload) {
    if (cancelled) {
      finish_request_error(shared, id, tenant,
                           {ErrorCode::Cancelled, "request was cancelled"});
      return;
    }
    tenant_release(tenant);
    {
      std::lock_guard<std::mutex> lk(shared->mu);
      shared->pending.erase(id);
    }
    requests_completed.fetch_add(1, std::memory_order_relaxed);
    shared->push(Tag::Result, id, std::move(result_payload));
    update_queue_gauges();
  }

  // Resolves a pending request to a typed ErrorReply (Cancelled,
  // ShuttingDown, ...) from a completion callback or a failed admission.
  void finish_request_error(const std::shared_ptr<SessionShared>& shared,
                            std::int32_t id, std::int64_t tenant,
                            const ErrorInfo& e) {
    tenant_release(tenant);
    {
      std::lock_guard<std::mutex> lk(shared->mu);
      shared->pending.erase(id);
    }
    if (e.code == ErrorCode::Cancelled)
      requests_cancelled.fetch_add(1, std::memory_order_relaxed);
    else
      requests_rejected.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::uint8_t> payload;
    encode_error(e, payload);
    shared->push(Tag::ErrorReply, id, std::move(payload));
    update_queue_gauges();
  }

  void handle_submit_batch(Session* s, std::int32_t id,
                           const std::vector<std::uint8_t>& payload) {
    auto job = std::make_shared<BatchJob>();
    if (auto e = decode_submit_batch(payload, opts.limits, job.get())) {
      reject(s, id, *e);
      return;
    }
    if (admission_closed(s, id)) return;
    if (!tenant_admit(job->tenant)) {
      requests_overloaded.fetch_add(1, std::memory_order_relaxed);
      reject(s, id,
             {ErrorCode::Overloaded,
              "tenant " + std::to_string(job->tenant) + " is at " +
                  std::to_string(opts.limits.max_inflight_per_tenant) +
                  " in-flight requests"});
      return;
    }
    note_tenant(job->tenant);

    // One DAG for the whole batch, one pool task per problem.
    auto fused = std::make_shared<FusedBatch>(std::move(job->problems), job->b,
                                              job->tree, job->ib);
    const double t0 = monotonic_seconds();
    auto shared = s->shared;
    DagSubmitOptions sopts;
    // One pool priority level below the request's (saturating): the pool
    // breaks ties by fewest tasks delivered, so at equal priority a freshly
    // admitted batch would otherwise win every pick until it has delivered
    // as many whole-problem tasks as the requests already in flight,
    // holding their tasks back for up to about a millisecond.
    sopts.priority = job->priority > INT32_MIN ? job->priority - 1 : INT32_MIN;
    sopts.on_done = [this, shared, id, fused, job, t0](DagId, bool cancelled) {
      if (cancelled) {
        finish_request(shared, id, job->tenant, /*cancelled=*/true, {});
        return;
      }
      std::vector<std::uint8_t> out;
      encode_batch_result(fused->rs(), out);
      observe_latency("batch", t0);
      batch_problems.fetch_add(static_cast<long long>(fused->size()),
                               std::memory_order_relaxed);
      tenant_release(job->tenant);
      {
        std::lock_guard<std::mutex> lk(shared->mu);
        shared->pending.erase(id);
      }
      requests_completed.fetch_add(1, std::memory_order_relaxed);
      shared->push(Tag::BatchResult, id, std::move(out));
      update_queue_gauges();
    };
    {
      std::lock_guard<std::mutex> lk(shared->mu);
      shared->pending.emplace(id, DagId{0});
    }
    // A batch is one request (and one DAG): it counts in both ledgers, and
    // pre-submit so completion can never outrun acceptance in a snapshot.
    requests_accepted.fetch_add(1, std::memory_order_relaxed);
    batches_accepted.fetch_add(1, std::memory_order_relaxed);
    DagId dag{0};
    try {
      dag = pool->submit(
          fused->graph(), fused->b(),
          [fused](std::int32_t idx, int, TileWorkspace& ws) {
            fused->execute(idx, ws);
          },
          std::move(sopts));
    } catch (const PoolOverloaded& e) {
      requests_overloaded.fetch_add(1, std::memory_order_relaxed);
      finish_request_error(shared, id, job->tenant,
                           {ErrorCode::Overloaded, e.what()});
      return;
    } catch (const Error&) {
      finish_request_error(shared, id, job->tenant,
                           {ErrorCode::ShuttingDown, "server is shutting down"});
      return;
    }
    {
      std::lock_guard<std::mutex> lk(shared->mu);
      auto it = shared->pending.find(id);
      if (it != shared->pending.end()) it->second = dag;
    }
    update_queue_gauges();
  }

  template <class Streams>
  void handle_stream_open(Session* s, std::int32_t id,
                          const std::vector<std::uint8_t>& payload,
                          Streams& streams) {
    StreamOpenReq req;
    if (auto e = decode_stream_open(payload, opts.limits, &req)) {
      reject(s, id, *e);
      return;
    }
    if (admission_closed(s, id)) return;
    if (streams.count(id) != 0) {
      reject(s, id, {ErrorCode::Malformed,
                     "stream " + std::to_string(id) + " is already open"});
      return;
    }
    auto& st = streams[id];
    st.tsqr = std::make_unique<IncrementalTSQR>(req.n, req.b);
    st.tenant = req.tenant;
    note_tenant(req.tenant);
    streams_opened.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::uint8_t> out;
    encode_stream_r(Matrix(0, req.n), out);  // open ack: empty R
    s->shared->push(Tag::StreamR, id, std::move(out));
  }

  template <class Streams>
  void handle_stream_append(Session* s, std::int32_t id,
                            const std::vector<std::uint8_t>& payload,
                            Streams& streams) {
    auto it = streams.find(id);
    if (it == streams.end()) {
      reject(s, id, {ErrorCode::UnknownStream,
                     "stream " + std::to_string(id) + " is not open"});
      return;
    }
    Matrix rows;
    if (auto e = decode_stream_append(payload, it->second.tsqr->cols(),
                                      opts.limits, &rows)) {
      reject(s, id, *e);
      return;
    }
    it->second.tsqr->add_rows(rows);
    stream_rows.fetch_add(rows.rows(), std::memory_order_relaxed);
    std::vector<std::uint8_t> out;
    encode_stream_r(Matrix(0, it->second.tsqr->cols()), out);  // append ack
    s->shared->push(Tag::StreamR, id, std::move(out));
  }

  template <class Streams>
  void handle_stream_query(Session* s, std::int32_t id, Streams& streams) {
    auto it = streams.find(id);
    if (it == streams.end()) {
      reject(s, id, {ErrorCode::UnknownStream,
                     "stream " + std::to_string(id) + " is not open"});
      return;
    }
    std::vector<std::uint8_t> out;
    encode_stream_r(it->second.tsqr->r(), out);
    s->shared->push(Tag::StreamR, id, std::move(out));
  }

  template <class Streams>
  void handle_stream_close(Session* s, std::int32_t id, Streams& streams) {
    auto it = streams.find(id);
    if (it == streams.end()) {
      reject(s, id, {ErrorCode::UnknownStream,
                     "stream " + std::to_string(id) + " is not open"});
      return;
    }
    std::vector<std::uint8_t> out;
    encode_stream_r(it->second.tsqr->r(), out);
    streams.erase(it);
    s->shared->push(Tag::StreamR, id, std::move(out));
  }

  void handle_cancel(Session* s, std::int32_t id) {
    DagId dag = 0;
    bool known = false;
    {
      std::lock_guard<std::mutex> lk(s->shared->mu);
      auto it = s->shared->pending.find(id);
      if (it != s->shared->pending.end()) {
        dag = it->second;
        known = true;
      }
    }
    if (!known) {
      reject(s, id, {ErrorCode::UnknownRequest,
                     "no pending request with id " + std::to_string(id)});
      return;
    }
    // If the DAG already finished, the Result beat the Cancel — the reply
    // is already on its way and the cancel is a harmless no-op.
    pool->cancel(dag);
  }

  void handle_status(Session* s, std::int32_t id) {
    std::vector<std::uint8_t> out;
    encode_status(snapshot(), out);
    s->shared->push(Tag::StatusReply, id, std::move(out));
  }

  ServerStatus snapshot() const {
    ServerStatus st;
    st.requests_accepted = requests_accepted.load(std::memory_order_relaxed);
    st.requests_completed = requests_completed.load(std::memory_order_relaxed);
    st.requests_rejected = requests_rejected.load(std::memory_order_relaxed);
    st.requests_cancelled = requests_cancelled.load(std::memory_order_relaxed);
    st.batches_accepted = batches_accepted.load(std::memory_order_relaxed);
    st.batch_problems = batch_problems.load(std::memory_order_relaxed);
    st.streams_opened = streams_opened.load(std::memory_order_relaxed);
    st.stream_rows = stream_rows.load(std::memory_order_relaxed);
    st.active_dags = pool->active_dags();
    st.ready_tasks = pool->ready_tasks();
    st.max_active_dags = pool->stats().max_active_dags;
    st.requests_overloaded =
        requests_overloaded.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(sessions_mu);
      st.open_sessions = static_cast<std::int64_t>(sessions.size());
    }
    return st;
  }

  ServerOptions opts;
  std::uint16_t bound_port = 0;
  net::Fd listener;
  std::unique_ptr<DagPool> pool;

  mutable std::mutex sessions_mu;
  std::vector<std::unique_ptr<Session>> sessions;
  std::thread accept_thread;

  std::atomic<bool> stopping{false};
  std::atomic<bool> stop_once{false};
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stop_requested = false;

  std::atomic<long long> requests_accepted{0};
  std::atomic<long long> requests_completed{0};
  std::atomic<long long> requests_rejected{0};
  std::atomic<long long> requests_cancelled{0};
  std::atomic<long long> batches_accepted{0};
  std::atomic<long long> batch_problems{0};
  std::atomic<long long> streams_opened{0};
  std::atomic<long long> stream_rows{0};
  std::atomic<long long> requests_overloaded{0};

  // Per-tenant in-flight SubmitQR/SubmitBatch counts (admission control).
  std::mutex tenant_mu;
  std::unordered_map<std::int64_t, int> tenant_inflight;
};

Server::Server(const ServerOptions& opts)
    : impl_(std::make_unique<Impl>(opts)) {}

Server::~Server() = default;

std::uint16_t Server::port() const { return impl_->bound_port; }

void Server::wait() { impl_->wait_stop(); }

void Server::stop() { impl_->stop_all(); }

ServerStatus Server::status() const { return impl_->snapshot(); }

DagPool& Server::pool_for_testing() { return *impl_->pool; }

}  // namespace hqr::serve
