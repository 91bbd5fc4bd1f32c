#include "distrun/dist_exec.hpp"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include <signal.h>
#include <unistd.h>

#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "dag/partition.hpp"
#include "distrun/payload.hpp"
#include "fault/sent_log.hpp"

namespace hqr::distrun {
namespace {

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

DistRankStats local_rank_stats(int rank, const DistOptions& opts,
                               const RunStats& rs,
                               const net::CommCounters& c,
                               double max_recv_wait_seconds) {
  DistRankStats s;
  s.rank = rank;
  s.threads = opts.threads;
  s.tasks = rs.total_tasks;
  s.data_messages_sent = c.data_messages_sent;
  s.data_bytes_sent = c.data_bytes_sent;
  s.data_messages_recv = c.data_messages_recv;
  s.data_bytes_recv = c.data_bytes_recv;
  s.exec_seconds = rs.seconds;
  s.busy_seconds = sum(rs.busy_seconds_per_thread);
  s.idle_seconds = sum(rs.idle_seconds_per_thread);
  s.terminal_wait_seconds = sum(rs.terminal_wait_seconds_per_thread);
  s.max_recv_wait_seconds = max_recv_wait_seconds;
  s.messages_sent_by_tag = c.messages_sent_by_tag;
  s.messages_recv_by_tag = c.messages_recv_by_tag;
  return s;
}

}  // namespace

QRFactors dist_qr_factorize(net::Comm& comm, const Matrix& a, int b,
                            const EliminationList& list,
                            const Distribution& dist, const DistOptions& opts,
                            DistStats* stats) {
  Stopwatch wall;
  DistPhases phases;
  double phase_start = 0.0;
  const auto end_phase = [&](double& phase) {
    const double now = wall.seconds();
    phase = now - phase_start;
    phase_start = now;
  };
  const int me = comm.rank();
  const int nranks = comm.size();
  HQR_CHECK(dist.nodes() == nranks,
            "distribution has " << dist.nodes() << " nodes but communicator "
                                << nranks << " ranks");

  // Every rank rebuilds the same graph and plan from the same inputs — the
  // structures are never shipped, only tile data is.
  TiledMatrix tiled = TiledMatrix::from_matrix(a, b);
  end_phase(phases.tiling);
  const int mt = tiled.mt(), nt = tiled.nt();
  KernelList kernels = expand_to_kernels(list, mt, nt);
  TaskGraph graph(kernels, mt, nt);
  CommPlan plan(graph, dist, opts.broadcast);
  QRFactors f(std::move(tiled), std::move(kernels), opts.ib);
  // Region-version gates keep out-of-order Data applies (cross-sender
  // inversion, SentTileLog replays) from regressing the replica; see
  // RegionGates in payload.hpp.
  RegionGates gates(mt, nt);
  // This rank's tasks in graph (= topological) order, plus completion
  // flags — the comm loop's `locally_ready` gate (see there) reads both to
  // hold back frames that would overtake this rank's own pending tasks.
  std::vector<std::int32_t> my_tasks;
  for (std::int32_t p = 0; p < graph.size(); ++p)
    if (plan.node_of(p) == me) my_tasks.push_back(p);
  std::vector<std::atomic<char>> local_done(
      static_cast<std::size_t>(graph.size()));

  const double shutdown_timeout = opts.progress_timeout_seconds > 0
                                      ? opts.progress_timeout_seconds
                                      : 3600.0;

  std::atomic<long long> progress{0};  // bumped on every local completion
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::string error;
  const auto fail = [&](const std::string& why) {
    std::lock_guard<std::mutex> lk(error_mu);
    if (!failed.load(std::memory_order_relaxed)) error = why;
    failed.store(true, std::memory_order_release);
  };

  // --- Fault injection and recovery state (inert on fault-free runs) ---
  const bool ft = opts.fault.recovery;
  const bool chaos = !opts.fault.faults.empty();
  fault::SentTileLog sent_log(nranks, opts.fault.sent_log_max_bytes);
  std::atomic<long long> fault_activity{0};  // feeds the progress watchdog
  std::atomic<long long> frames_replayed{0};
  std::atomic<long long> bytes_replayed{0};
  std::atomic<int> faults_injected{0};
  // Shutdown-phase frames a link re-wire must re-ship (replay covers Data
  // only): a non-zero rank re-posts Stats+Gather when its rank-0 link is
  // replaced, rank 0 re-posts Bye. Written by the main thread before the
  // flag flips; hooks on the same phase's pump read them after.
  std::atomic<bool> stats_posted{false};
  std::atomic<bool> bye_posted{false};
  net::Payload stats_payload;
  net::Payload gather_payload;
  const auto note_failure = [&](int who) {
    fault_activity.fetch_add(1, std::memory_order_relaxed);
    if (opts.fault.on_failure) {
      fault::RankFailure fl;
      fl.rank = who;
      fl.detected_by = me;
      fl.reason = fault::FailureReason::PeerClosed;
      fl.seconds = monotonic_seconds();
      opts.fault.on_failure(fl);
    }
  };

  // One time zero per rank, shared by the executor's worker lanes and the
  // communication thread's flow stamps; set right after the clock-sync
  // handshake below. The trace header's clock offset places that zero on
  // rank 0's clock, which is what merge_rank_traces aligns by. Declared
  // (not set) here because the recovery hooks capture it by reference.
  double origin = 0.0;

  if (ft) {
    // Armed before the clock-sync handshake: injections fire at local task
    // completions, so a fast victim can sync, run its first tasks, and die
    // while slower ranks are still in their own handshake — their sync
    // pump must survive draining the dead peer's socket. From here on,
    // peer death marks the peer down, reports LinkDown to the launcher,
    // and fires these hooks on whichever thread is pumping (sync loop or
    // main thread during setup/shutdown, comm thread during execution).
    net::CommFaultHooks hooks;
    hooks.on_peer_down = [&](int q) { note_failure(q); };
    hooks.on_peer_replaced = [&](int q) {
      fault_activity.fetch_add(1, std::memory_order_relaxed);
      const bool complete = sent_log.replay(
          q, [&](int task, const net::Payload& p) {
            comm.post(q, net::Tag::Data, task, p);
            frames_replayed.fetch_add(1, std::memory_order_relaxed);
            bytes_replayed.fetch_add(static_cast<long long>(p->size()),
                                     std::memory_order_relaxed);
            if (opts.trace)
              opts.trace->record_flow_send(task, me, q,
                                           monotonic_seconds() - origin);
          });
      if (!complete)
        fail("sent-tile log overflowed (cap " +
             std::to_string(opts.fault.sent_log_max_bytes) +
             " bytes); cannot replay history to rank " + std::to_string(q));
      // Replay covers Data only; shutdown control frames the down window
      // swallowed must be re-shipped by hand.
      if (q == 0 && stats_posted.load(std::memory_order_acquire)) {
        comm.post(0, net::Tag::Stats, me, stats_payload);
        comm.post(0, net::Tag::Gather, me, gather_payload);
      }
      if (me == 0 && bye_posted.load(std::memory_order_acquire))
        comm.post(q, net::Tag::Bye, 0, nullptr, 0);
    };
    comm.enable_fault_tolerance(opts.fault.control_fd, std::move(hooks));
  }

  // Clock alignment runs before any Data traffic. A fast peer can finish
  // its sync rounds and start executing while we are still in the
  // handshake; whatever it sends is parked in `held` and replayed through
  // the regular handler once the engine's port exists. A victim can even
  // die in that window — with recovery on, the pump above marks it down
  // and the handshake completes on the surviving links (the victim's own
  // pings were already answered: injections trigger on task completions,
  // which come strictly after its sync).
  std::vector<net::Message> held;
  net::ClockSync csync;
  // A replacement rank joins mid-run: the survivors are deep in execution
  // and will not answer sync pings, so it adopts offset zero (exact for
  // forked single-host ranks, which is the only place recovery runs).
  if (nranks > 1 && opts.clock_sync_rounds > 0 && !opts.fault.is_replacement)
    csync = net::sync_clocks(comm, &held, opts.clock_sync_rounds,
                             shutdown_timeout);

  origin = monotonic_seconds();
  if (opts.trace) opts.trace->set_clock_offset(origin + csync.offset_seconds);

  ExecutorOptions eopts;
  eopts.threads = opts.threads;
  eopts.priority_scheduling = opts.priority_scheduling;
  eopts.data_reuse = opts.data_reuse;
  eopts.ib = opts.ib;
  eopts.scheduler = opts.scheduler;
  eopts.trace = opts.trace;
  eopts.metrics = opts.metrics;
  eopts.trace_origin = origin;

  // Fires chaos actions armed at the k-th local completion (1-based).
  const auto inject_at = [&](long long k) {
    for (const fault::FaultAction& a : opts.fault.faults) {
      if (a.at_task != k) continue;
      switch (a.kind) {
        case fault::FaultKind::KillRank:
          std::fprintf(stderr,
                       "[rank %d] fault injection: SIGKILL at local task "
                       "%lld\n",
                       me, k);
          std::fflush(stderr);
          ::kill(::getpid(), SIGKILL);
          break;  // unreachable
        case fault::FaultKind::DropLink:
          std::fprintf(stderr,
                       "[rank %d] fault injection: severing link to rank %d "
                       "at local task %lld\n",
                       me, a.peer, k);
          comm.sever_link(a.peer);
          faults_injected.fetch_add(1, std::memory_order_relaxed);
          break;
        case fault::FaultKind::DelayLink:
          comm.pause_peer(a.peer, a.delay_seconds);
          faults_injected.fetch_add(1, std::memory_order_relaxed);
          break;
      }
    }
  };

  PartitionView view;
  view.task_rank = &plan.node();
  view.my_rank = me;
  view.on_complete = [&](std::int32_t idx) {
    // Stamp this task's write regions before anything can release its
    // successors: a late stale frame must find the gates already advanced.
    gates.bump_writes(graph.op(idx), idx);
    local_done[static_cast<std::size_t>(idx)].store(1,
                                                    std::memory_order_release);
    const long long k = progress.fetch_add(1, std::memory_order_relaxed) + 1;
    // Injection sits before the broadcast: a killed rank's k-th output
    // never leaves the process, exactly the window the simulator models.
    if (chaos) inject_at(k);
    // One pack, one frame per broadcast-tree child (Eager: every consuming
    // rank; Binomial: this producer's direct children — the rest is
    // relayed by intermediate consumers as the payload arrives there).
    const std::vector<std::int32_t> kids = plan.bcast_children(idx, me);
    if (kids.empty()) return;
    std::vector<std::uint8_t> packed;
    pack_task_output(graph.op(idx), f, packed);
    const net::Payload payload =
        std::make_shared<const std::vector<std::uint8_t>>(std::move(packed));
    // Stamp the send BEFORE posting: the frame can reach the receiver (and
    // be stamped there) while this worker is descheduled, and a post-post
    // stamp would then violate send < recv on the merged timeline.
    const double t = opts.trace ? monotonic_seconds() - origin : 0.0;
    for (std::int32_t d : kids) {
      // Under recovery, log BEFORE posting: the log must cover every frame
      // ever posted — including frames dropped while a peer is down — for
      // replay to be the full history. The order is load-bearing: a
      // ReplacePeer re-wire drops the peer's send queue and then replays
      // this log, so a frame enqueued before its append could land in that
      // drop window while still invisible to the replay — lost for good.
      // Logged-then-posted, the worst case is a duplicate delivery, which
      // the receiver's seen-producer dedup absorbs.
      if (ft) sent_log.append(d, idx, payload);
      comm.post(d, net::Tag::Data, idx, payload);
      if (opts.trace) opts.trace->record_flow_send(idx, me, d, t);
    }
  };

  // Control frames that arrive ahead of their phase. A rank whose slice of
  // the DAG finishes early posts Stats+Gather while rank 0 may still be
  // executing; the execution-phase loop parks them here and the collect
  // phase replays them. Written only by the comm thread during the run and
  // read by the main thread after joining it, so no lock is needed.
  std::vector<net::Message> pending;

  // Largest gap between consecutive Data arrivals, measured on the comm
  // thread; written before the join in before_teardown, read after.
  double max_recv_wait = 0.0;

  // Register telemetry gauges up front (registration locks; updates don't).
  obs::Gauge* queue_frames_gauge = nullptr;
  obs::Gauge* queue_bytes_gauge = nullptr;
  if (opts.metrics && opts.telemetry_interval_seconds > 0) {
    queue_frames_gauge = &opts.metrics->gauge("net.send_queue_frames");
    queue_bytes_gauge = &opts.metrics->gauge("net.send_queue_bytes");
  }

  // Communication thread: drives the socket mesh while workers execute.
  // Every received Data frame is applied to the local replica immediately —
  // any local task that could touch those regions is either an ancestor of
  // the producer (finished everywhere already) or an unreleased successor.
  // Under tree broadcasts it is also re-posted to this rank's subtree
  // children first, so a relay never waits on local compute.
  std::thread comm_thread;
  // Producers whose Data frame already arrived (comm thread only): each
  // tree member has exactly one parent so duplicates are protocol bugs,
  // but a dedup keyed by producer id keeps a misbehaving peer from
  // double-applying updates or amplifying forwards.
  std::vector<char> seen_data(static_cast<std::size_t>(graph.size()), 0);
  std::atomic<bool> stop{false};
  const auto comm_loop = [&](RemotePort* port) {
    Stopwatch sw;
    double last_activity = 0.0;
    double last_data = 0.0;
    long long seen = progress.load(std::memory_order_relaxed);
    long long fseen = fault_activity.load(std::memory_order_relaxed);
    double next_tick = opts.telemetry_interval_seconds;
    const auto sample_telemetry = [&]() {
      DistTelemetry t;
      t.rank = me;
      t.threads = opts.threads;
      t.tasks_done = progress.load(std::memory_order_relaxed);
      t.tasks_total = plan.tasks_on(me);
      t.send_queue_frames = comm.send_queue_frames();
      t.send_queue_bytes = comm.send_queue_bytes();
      const net::CommCounters c = comm.counters_snapshot();
      t.data_messages_sent = c.data_messages_sent;
      t.data_messages_recv = c.data_messages_recv;
      t.data_bytes_sent = c.data_bytes_sent;
      t.data_bytes_recv = c.data_bytes_recv;
      t.seconds = sw.seconds();
      return t;
    };
    // On an original rank a frame is always safe to apply on arrival: its
    // producer only ran because every local task that must precede it had
    // completed AND that completion's frame had left this process (wire
    // causality). A replacement breaks that — survivors' frames were
    // enabled by the DEAD incarnation's completions, so a frame can arrive
    // before this incarnation has re-executed the local tasks that must
    // precede it, and applying it would overwrite exactly the region bytes
    // those tasks still need to read. The kernel list is a topological
    // order (every graph edge goes to a higher index), so "every local
    // task that must precede frame `id`" is bounded by "every local task
    // with a lower index": hold the frame until the local completion
    // frontier passes it. Deadlock-free by induction — the lowest
    // unfinished local task's own inputs all clear this gate.
    std::size_t frontier = 0;  // my_tasks[0..frontier) have all completed
    const auto locally_ready = [&](std::int32_t id) {
      if (!opts.fault.is_replacement) return true;
      while (frontier < my_tasks.size() &&
             local_done[static_cast<std::size_t>(my_tasks[frontier])].load(
                 std::memory_order_acquire))
        ++frontier;
      return frontier >= my_tasks.size() || my_tasks[frontier] > id;
    };
    // A Data frame held back by locally_ready, with its shared payload.
    struct HeldFrame {
      std::int32_t id;
      int src;
      net::Payload payload;
    };
    std::vector<HeldFrame> deferred;
    // Stall post-mortem, printed when this rank gives up (watchdog) or a
    // peer tears the run down (Abort): enough state to tell a frame that
    // never arrived from a frame stuck behind the replacement's local
    // frontier.
    const auto stall_diag = [&](const char* why) {
      std::size_t fdone = 0;
      while (fdone < my_tasks.size() &&
             local_done[static_cast<std::size_t>(my_tasks[fdone])].load(
                 std::memory_order_acquire))
        ++fdone;
      std::string ids;
      ids.reserve(12 * deferred.size());
      for (const HeldFrame& h : deferred) {
        ids.append(" ");
        ids.append(std::to_string(h.id));
      }
      std::fprintf(stderr,
                   "[rank %d%s] %s: %zu/%zu local tasks done, lowest "
                   "incomplete local task %d, %zu deferred frame(s):%s\n",
                   me, opts.fault.is_replacement ? "*" : "", why, fdone,
                   my_tasks.size(),
                   fdone < my_tasks.size() ? my_tasks[fdone] : -1,
                   deferred.size(), ids.c_str());
      std::fflush(stderr);
    };
    const auto deliver = [&](const HeldFrame& h) {
      apply_task_output(graph.op(h.id), f, *h.payload, gates, h.id);
      if (opts.trace) {
        // The arrow's head: the first local task this payload helps
        // release (graph order makes it the earliest consumer here).
        std::int32_t consumer = -1;
        for (std::int32_t s : graph.successors(h.id))
          if (plan.node_of(s) == me) {
            consumer = s;
            break;
          }
        opts.trace->record_flow_recv(h.id, h.src, me, consumer,
                                     monotonic_seconds() - origin);
      }
      const double now = sw.seconds();
      if (now - last_data > max_recv_wait) max_recv_wait = now - last_data;
      last_data = now;
      port->remote_complete(h.id);
    };
    const auto on_msg = [&](net::Message&& m) {
      switch (m.tag) {
        case net::Tag::Data: {
          HQR_CHECK(m.id >= 0 && m.id < graph.size(),
                    "Data frame names unknown task " << m.id);
          if (seen_data[static_cast<std::size_t>(m.id)]) break;
          seen_data[static_cast<std::size_t>(m.id)] = 1;
          // The received buffer itself (moved, not copied) is what every
          // relay ships and the local apply reads.
          HeldFrame h{m.id, m.src,
                      std::make_shared<const std::vector<std::uint8_t>>(
                          std::move(m.payload))};
          // Relay down the broadcast tree before touching local state: the
          // subtree's latency is the payload's, not this rank's. Never
          // deferred — downstream ranks gate their own applies.
          const std::vector<std::int32_t> kids = plan.bcast_children(h.id, me);
          if (!kids.empty()) {
            const double t = opts.trace ? monotonic_seconds() - origin : 0.0;
            for (std::int32_t d : kids) {
              // Same append-before-post ordering as on_complete: a re-wire
              // drops the queue then replays the log.
              if (ft) sent_log.append(d, h.id, h.payload);
              comm.post(d, net::Tag::Data, h.id, h.payload);
              if (opts.trace) opts.trace->record_flow_send(h.id, me, d, t);
            }
          }
          if (locally_ready(h.id))
            deliver(h);
          else
            deferred.push_back(std::move(h));
          break;
        }
        case net::Tag::Telemetry:
          if (me == 0 && opts.on_telemetry &&
              m.payload.size() == sizeof(DistTelemetry)) {
            DistTelemetry t;
            std::memcpy(&t, m.payload.data(), sizeof(t));
            opts.on_telemetry(t);
          }
          break;
        case net::Tag::Abort:
          stall_diag("peer abort");
          fail("rank " + std::to_string(m.src) + " aborted the run");
          break;
        case net::Tag::Stats:
        case net::Tag::Gather:
          // A peer finished its slice before we finished ours.
          if (me == 0) {
            pending.push_back(std::move(m));
            break;
          }
          [[fallthrough]];
        default:
          fail("unexpected tag " +
               std::to_string(static_cast<unsigned>(m.tag)) +
               " during execution");
      }
    };
    for (net::Message& m : held) on_msg(std::move(m));
    held.clear();
    while (!stop.load(std::memory_order_acquire)) {
      int delivered = 0;
      try {
        delivered = comm.pump(2, on_msg);
      } catch (const std::exception& e) {
        fail(e.what());
      }
      if (failed.load(std::memory_order_acquire)) {
        port->cancel();
        return;
      }
      // Deferred frames unblock when workers finish the local tasks they
      // wait on; one delivery can run tasks that unblock another, so drain
      // to a fixed point.
      for (bool any = !deferred.empty(); any;) {
        any = false;
        for (std::size_t i = 0; i < deferred.size();) {
          if (locally_ready(deferred[i].id)) {
            const HeldFrame h = std::move(deferred[i]);
            deferred.erase(deferred.begin() +
                           static_cast<std::ptrdiff_t>(i));
            deliver(h);
            any = true;
          } else {
            ++i;
          }
        }
      }
      if (opts.telemetry_interval_seconds > 0 && sw.seconds() >= next_tick) {
        next_tick = sw.seconds() + opts.telemetry_interval_seconds;
        const DistTelemetry t = sample_telemetry();
        if (queue_frames_gauge) {
          queue_frames_gauge->set(static_cast<double>(t.send_queue_frames));
          queue_bytes_gauge->set(static_cast<double>(t.send_queue_bytes));
        }
        if (me == 0) {
          // Rank 0's own heartbeat never crosses the wire.
          if (opts.on_telemetry) opts.on_telemetry(t);
        } else {
          comm.post(0, net::Tag::Telemetry, me, &t, sizeof(t));
        }
      }
      const long long p = progress.load(std::memory_order_relaxed);
      const long long fa = fault_activity.load(std::memory_order_relaxed);
      if (delivered > 0 || p != seen || fa != fseen) {
        // Peer-down/re-wire events count as progress: a survivor waiting
        // out a recovery is not wedged. progress_timeout_seconds must
        // exceed the worst-case recovery time (DESIGN.md §14).
        seen = p;
        fseen = fa;
        last_activity = sw.seconds();
      } else if (opts.progress_timeout_seconds > 0 &&
                 sw.seconds() - last_activity >
                     opts.progress_timeout_seconds) {
        if (opts.fault.on_failure) {
          fault::RankFailure fl;
          fl.rank = me;
          fl.detected_by = me;
          fl.reason = fault::FailureReason::WatchdogTimeout;
          fl.seconds = monotonic_seconds();
          opts.fault.on_failure(fl);
        }
        stall_diag("watchdog");
        fail("no progress for " +
             std::to_string(opts.progress_timeout_seconds) +
             "s (stuck or dead peer)");
        for (int q = 0; q < nranks; ++q)
          if (q != me) comm.post(q, net::Tag::Abort, me, nullptr, 0);
        for (int i = 0; i < 50 && !comm.flushed(); ++i)
          comm.pump(2, [](net::Message&&) {});
        port->cancel();
        return;
      }
    }
  };

  end_phase(phases.plan_sync);
  RunStats rs = execute_partition(
      f, graph, eopts, view,
      [&](RemotePort& port) {
        RemotePort* p = &port;  // the port outlives the thread (see below)
        comm_thread = std::thread([&comm_loop, p] { comm_loop(p); });
      },
      [&] {
        // Engine (and the port) must outlive the communication thread.
        stop.store(true, std::memory_order_release);
        if (comm_thread.joinable()) comm_thread.join();
      });
  end_phase(phases.engine);

  HQR_CHECK(!failed.load(std::memory_order_acquire),
            "distributed run failed on rank " << me << ": " << error);

  // Shutdown/gather protocol, driven on this (main) thread. The engine
  // finishing means every inbound Data frame was consumed — each one had a
  // local successor the engine waited for — so from here only control
  // traffic flows.
  const auto buffer_msg = [&](net::Message&& m) {
    pending.push_back(std::move(m));
  };
  Stopwatch flush_sw;
  while (!comm.flushed()) {
    comm.pump(2, buffer_msg);
    HQR_CHECK(flush_sw.seconds() < shutdown_timeout,
              "rank " << me << ": shutdown flush timed out");
  }
  end_phase(phases.flush);

  // Rank-local fault observability, appended to the POD stats frame.
  const auto fill_fault_stats = [&](DistRankStats& s) {
    const net::CommCounters c = comm.counters_snapshot();
    s.incarnation = opts.fault.incarnation;
    s.faults_injected = faults_injected.load(std::memory_order_relaxed);
    s.peers_down = c.peers_down;
    s.peers_replaced = c.peers_replaced;
    s.frames_dropped = c.frames_dropped_peer_down;
    s.frames_replayed = frames_replayed.load(std::memory_order_relaxed);
    s.bytes_replayed = bytes_replayed.load(std::memory_order_relaxed);
  };

  DistStats out;
  out.local_tasks = rs.total_tasks;
  out.plan_messages = plan.messages();
  out.plan_volume_bytes = plan.model_volume_bytes(b);
  out.clock = csync;
  out.run = rs;

  if (me == 0) {
    out.ranks.assign(static_cast<std::size_t>(nranks), {});
    out.ranks[0] =
        local_rank_stats(0, opts, rs, comm.counters(), max_recv_wait);
    fill_fault_stats(out.ranks[0]);
    std::vector<char> got_stats(static_cast<std::size_t>(nranks), 0);
    std::vector<char> got_gather(static_cast<std::size_t>(nranks), 0);
    got_stats[0] = got_gather[0] = 1;
    int missing = 2 * (nranks - 1);
    const auto collect = [&](net::Message&& m) {
      if (m.tag == net::Tag::Stats) {
        HQR_CHECK(m.payload.size() == sizeof(DistRankStats) &&
                      (ft || !got_stats[static_cast<std::size_t>(m.src)]),
                  "bad Stats frame from rank " << m.src);
        // First wins under recovery: a re-wired rank re-posts its Stats in
        // case the down window swallowed the original.
        if (got_stats[static_cast<std::size_t>(m.src)]) return;
        std::memcpy(&out.ranks[static_cast<std::size_t>(m.src)],
                    m.payload.data(), sizeof(DistRankStats));
        got_stats[static_cast<std::size_t>(m.src)] = 1;
        --missing;
      } else if (m.tag == net::Tag::Gather) {
        HQR_CHECK(ft || !got_gather[static_cast<std::size_t>(m.src)],
                  "duplicate Gather frame from rank " << m.src);
        if (got_gather[static_cast<std::size_t>(m.src)]) return;
        apply_gather(graph, plan, m.src, m.payload, f);
        got_gather[static_cast<std::size_t>(m.src)] = 1;
        --missing;
      } else if (ft && m.tag == net::Tag::Data) {
        // A replacement's re-post or a replay duplicate. Everything this
        // rank consumes arrived before its engine finished; drop it.
      } else if (m.tag == net::Tag::Telemetry) {
        // A rank's final heartbeat can race its Stats frame; deliver it and
        // keep collecting.
        if (opts.on_telemetry && m.payload.size() == sizeof(DistTelemetry)) {
          DistTelemetry t;
          std::memcpy(&t, m.payload.data(), sizeof(t));
          opts.on_telemetry(t);
        }
      } else {
        HQR_CHECK(false, "unexpected tag during gather (from rank "
                             << m.src << ")");
      }
    };
    for (net::Message& m : pending) collect(std::move(m));
    pending.clear();
    Stopwatch gather_sw;
    while (missing > 0) {
      comm.pump(5, collect);
      HQR_CHECK(gather_sw.seconds() < shutdown_timeout,
                "rank 0: gather timed out with " << missing
                                                 << " frame(s) missing");
    }
    end_phase(phases.gather);
    // Release everyone, then make sure the releases actually left. Under
    // recovery the flag lets the re-wire hook re-post Bye to a link whose
    // down window swallowed it.
    bye_posted.store(true, std::memory_order_release);
    for (int q = 1; q < nranks; ++q)
      comm.post(q, net::Tag::Bye, 0, nullptr, 0);
    comm.set_eof_ok(true);  // peers close as soon as Bye lands
    Stopwatch bye_sw;
    while (!comm.flushed()) {
      comm.pump(2, [](net::Message&&) {});
      HQR_CHECK(bye_sw.seconds() < shutdown_timeout,
                "rank 0: shutdown release timed out");
    }
    end_phase(phases.bye);
    out.ranks[0].phases = phases;
  } else {
    std::vector<std::uint8_t> packed;
    pack_gather(graph, plan, me, f, packed);
    DistRankStats mine =
        local_rank_stats(me, opts, rs, comm.counters(), max_recv_wait);
    fill_fault_stats(mine);
    mine.phases = phases;
    mine.phases.gather = wall.seconds() - phase_start;  // all but the posts
    const auto* raw = reinterpret_cast<const std::uint8_t*>(&mine);
    stats_payload = std::make_shared<const std::vector<std::uint8_t>>(
        raw, raw + sizeof(mine));
    gather_payload =
        std::make_shared<const std::vector<std::uint8_t>>(std::move(packed));
    // Published to the re-wire hook before posting: the rank-0 link can die
    // with these frames in its down window, and SentTileLog replay covers
    // Data only.
    stats_posted.store(true, std::memory_order_release);
    comm.post(0, net::Tag::Stats, me, stats_payload);
    comm.post(0, net::Tag::Gather, me, gather_payload);
    end_phase(phases.gather);
    // Sibling ranks may disappear once rank 0 released them; only Bye from
    // rank 0 matters now.
    comm.set_eof_ok(true);
    bool bye = false;
    const auto await_bye = [&](net::Message&& m) {
      // Under recovery a replacement's re-posts (and replay duplicates) can
      // still arrive here; this rank consumed everything it needed before
      // its engine finished, so they drop silently.
      if (ft && m.tag != net::Tag::Bye) return;
      HQR_CHECK(m.tag == net::Tag::Bye,
                "unexpected tag while awaiting shutdown release");
      if (m.src == 0) bye = true;
    };
    for (net::Message& m : pending) await_bye(std::move(m));
    pending.clear();
    Stopwatch bye_sw;
    while (!bye) {
      comm.pump(5, await_bye);
      HQR_CHECK(bye_sw.seconds() < shutdown_timeout,
                "rank " << me << ": shutdown release never arrived");
    }
    if (ft) {
      // Frames the re-wire hook posted from this phase's pump (replays,
      // re-posts) may still sit in the send queue; kernel buffers survive
      // our close, but unwritten queue entries would not.
      Stopwatch fsw;
      while (!comm.flushed()) {
        comm.pump(2, [](net::Message&&) {});
        HQR_CHECK(fsw.seconds() < shutdown_timeout,
                  "rank " << me << ": post-release flush timed out");
      }
    }
    end_phase(phases.bye);
  }

  out.comm = comm.counters();
  out.phases = phases;
  out.seconds = wall.seconds();

  if (opts.metrics) {
    obs::MetricsRegistry& m = *opts.metrics;
    m.counter("net.data_messages_sent").add(out.comm.data_messages_sent);
    m.counter("net.data_bytes_sent").add(out.comm.data_bytes_sent);
    m.counter("net.data_messages_recv").add(out.comm.data_messages_recv);
    m.counter("net.data_bytes_recv").add(out.comm.data_bytes_recv);
    m.counter("net.control_messages_sent")
        .add(out.comm.control_messages_sent);
    m.counter("net.control_bytes_sent").add(out.comm.control_bytes_sent);
    for (int t = 1; t < net::kTagCount; ++t) {
      const std::string n = net::tag_name(static_cast<net::Tag>(t));
      const auto ti = static_cast<std::size_t>(t);
      m.counter("net.messages_sent." + n)
          .add(out.comm.messages_sent_by_tag[ti]);
      m.counter("net.messages_recv." + n)
          .add(out.comm.messages_recv_by_tag[ti]);
    }
    m.counter("dist.local_tasks").add(out.local_tasks);
    m.counter("dist.plan_messages").add(out.plan_messages);
    m.gauge("dist.plan_volume_bytes").add(out.plan_volume_bytes);
    m.gauge("dist.seconds").add(out.seconds);
    m.gauge("dist.clock_offset_seconds").set(csync.offset_seconds);
    m.gauge("dist.clock_rtt_seconds").set(csync.min_rtt_seconds);
    m.gauge("dist.max_recv_wait_seconds").set(max_recv_wait);
    if (ft || chaos) {
      m.counter("fault.injected")
          .add(faults_injected.load(std::memory_order_relaxed));
      m.counter("fault.peers_down").add(out.comm.peers_down);
      m.counter("fault.peers_replaced").add(out.comm.peers_replaced);
      m.counter("fault.frames_dropped")
          .add(out.comm.frames_dropped_peer_down);
      m.counter("fault.frames_replayed")
          .add(frames_replayed.load(std::memory_order_relaxed));
      m.counter("fault.bytes_replayed")
          .add(bytes_replayed.load(std::memory_order_relaxed));
      m.gauge("fault.sent_log_bytes").set(static_cast<double>(
          sent_log.bytes()));
      m.gauge("fault.incarnation").set(opts.fault.incarnation);
    }
  }
  if (stats) *stats = std::move(out);
  return f;
}

}  // namespace hqr::distrun
