// Distributed-memory tile QR runtime (the real counterpart of the cluster
// simulator, paper §IV-A/§V-A).
//
// Every rank holds a full replica of the input matrix, deterministically
// rebuilds the same kernel list, task graph and communication plan
// (dag/partition.hpp), and executes the owner-computes slice of the DAG on
// the shared-memory executor's task pool. Remote dependencies flow as
// tagged tile messages driven by a dedicated communication thread; a
// completed task's output regions reach each consuming rank exactly once,
// either posted directly by the producer or relayed down a binomial
// broadcast tree of the consumers (DistOptions::broadcast), which makes
// the measured Data message count equal the simulator's prediction by
// construction under either kind. After the DAG drains, rank 0
// gathers every final tile region and T factor and returns a factorization
// bit-identical to a single-process run.
//
// Observability: before any Data traffic flows, ranks run the clock-sync
// handshake (net/clock_sync.hpp) and pin their trace recorder to a common
// origin, so per-rank trace CSVs merge into one causally consistent
// timeline; every inter-rank message is recorded as a FlowEvent half on each
// side; and an optional telemetry heartbeat streams per-rank progress to
// rank 0 while the DAG executes.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "dag/partition.hpp"
#include "dist/distribution.hpp"
#include "fault/events.hpp"
#include "fault/plan.hpp"
#include "net/clock_sync.hpp"
#include "net/comm.hpp"
#include "runtime/executor.hpp"

namespace hqr::distrun {

// Live progress heartbeat shipped to rank 0 over Tag::Telemetry while the
// DAG executes; a plain byte-copied struct (all ranks run the same binary).
// Rank 0 synthesizes its own entries locally so the consumer sees all ranks.
struct DistTelemetry {
  std::int32_t rank = 0;
  std::int32_t threads = 0;
  long long tasks_done = 0;   // local tasks completed so far
  long long tasks_total = 0;  // plan.tasks_on(rank)
  // Send-queue backpressure at sample time (frames/bytes not yet written).
  long long send_queue_frames = 0;
  long long send_queue_bytes = 0;
  long long data_messages_sent = 0;
  long long data_messages_recv = 0;
  long long data_bytes_sent = 0;
  long long data_bytes_recv = 0;
  double seconds = 0.0;  // since this rank started executing
};

// Fault injection + recovery wiring for one rank (DistOptions::fault).
// With `recovery` set the rank keeps a SentTileLog of every Data frame it
// ships, survives peer death (typed events instead of fatal errors), and
// replays the log when the launcher re-wires a link — the survivor half of
// the owner-computes recovery protocol (DESIGN.md §14). The fields mirror
// fault::FtRankContext; dist_quickstart-style callers copy them across.
struct DistFaultConfig {
  // Injections this rank arms (fault::FaultPlan::actions_for(rank)); each
  // fires at its 1-based local-completion trigger.
  std::vector<fault::FaultAction> faults;
  // Survive peer death and replay on re-wire. Off (default) keeps the
  // historical behavior: any peer failure is fatal.
  bool recovery = false;
  // This process replaces a dead rank: skip the clock-sync handshake (the
  // survivors are mid-run and will not answer) and re-execute the whole
  // partition. Survivors deduplicate the re-posted outputs.
  bool is_replacement = false;
  int incarnation = 0;  // 0 = original process
  // The launcher control channel (fault/ft_launcher.hpp); -1 = detection
  // without re-wiring.
  int control_fd = -1;
  // SentTileLog byte cap; past it the log stops recording and a later
  // replay attempt fails typed instead of replaying a partial history.
  long long sent_log_max_bytes = 256ll << 20;
  // Invoked once per detected failure, on the thread that detected it.
  std::function<void(const fault::RankFailure&)> on_failure;
};

struct DistOptions {
  int threads = 1;  // workers per rank
  int ib = 0;       // inner block of the kernels (0 = default_ib(b))
  // How a completed task's output reaches its consuming ranks. Binomial
  // (default) forwards through intermediate consumers so no producer's
  // send queue serializes a wide broadcast; Eager posts every frame from
  // the producer. Total Data messages are identical (the plan's invariant);
  // per-rank sent counts redistribute. All ranks must agree.
  BroadcastKind broadcast = BroadcastKind::Binomial;
  // Abort when the rank neither executes a task nor receives a message for
  // this long (a dead peer must not hang the run, or CI); <= 0 disables.
  double progress_timeout_seconds = 60.0;
  // Ping/pong rounds of the startup clock-sync handshake; 0 skips it (all
  // offsets read zero, which is exact for forked single-host ranks anyway).
  int clock_sync_rounds = 8;
  // Ship a DistTelemetry heartbeat to rank 0 every this many seconds while
  // executing; <= 0 disables. Delivered through on_telemetry on rank 0.
  double telemetry_interval_seconds = 0.0;
  // Rank 0 only: invoked once per received (or locally synthesized)
  // heartbeat, on the communication thread — keep it cheap and thread-safe.
  std::function<void(const DistTelemetry&)> on_telemetry;
  // Observability sinks for this rank's executor (worker lanes).
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  // Fault injection and recovery; inert by default.
  DistFaultConfig fault;
};

// Where one rank's dist_qr_factorize wall time went, in seconds. The
// phases run back to back, so they sum to at most DistStats::seconds.
struct DistPhases {
  double tiling = 0.0;     // TiledMatrix::from_matrix of the whole input
  double plan_sync = 0.0;  // kernels, graph, CommPlan, factor storage, clock sync
  double engine = 0.0;     // execute_partition (workers + comm thread)
  double flush = 0.0;      // writing the frames the engine left queued
  double gather = 0.0;     // rank 0: collect Stats + Gather; others: pack, post
  double bye = 0.0;        // rank 0: post and flush Bye; others: await it
};

// Per-rank summary shipped to rank 0 over Tag::Stats; a plain byte-copied
// struct (all ranks run the same binary).
struct DistRankStats {
  std::int32_t rank = 0;
  std::int32_t threads = 0;
  long long tasks = 0;
  long long data_messages_sent = 0;
  long long data_bytes_sent = 0;
  long long data_messages_recv = 0;
  long long data_bytes_recv = 0;
  double exec_seconds = 0.0;
  // Summed over workers; populated only when the run was observed (a trace
  // or metrics sink attached), like RunStats.
  double busy_seconds = 0.0;
  double idle_seconds = 0.0;
  double terminal_wait_seconds = 0.0;
  // Longest gap between consecutive Data arrivals on the communication
  // thread (from loop start to the last arrival); 0 when the rank received
  // no Data. A large value pinpoints the rank that starved for remote input.
  double max_recv_wait_seconds = 0.0;
  // Wire messages by tag (net::tag_index), captured when the rank shipped
  // its stats; Data slots equal plan.sent_by/received_by for the rank.
  std::array<long long, net::kTagCount> messages_sent_by_tag{};
  std::array<long long, net::kTagCount> messages_recv_by_tag{};
  // Fault tolerance (all zero on fault-free runs).
  std::int32_t incarnation = 0;       // 0 = original process of this rank
  std::int32_t faults_injected = 0;   // chaos actions this rank armed+fired
  long long peers_down = 0;           // peer-death events this rank observed
  long long peers_replaced = 0;       // links the launcher re-wired for us
  long long frames_dropped = 0;       // posts swallowed while a peer was down
  long long frames_replayed = 0;      // SentTileLog frames re-shipped
  long long bytes_replayed = 0;
  // Phases up to the Stats frame: a rank > 0 builds it before posting its
  // Gather and awaiting Bye, so `bye` reads 0 there (its own
  // DistStats::phases has every phase).
  DistPhases phases;
};

struct DistStats {
  double seconds = 0.0;       // this rank's wall time, run + gather
  long long local_tasks = 0;  // tasks executed on this rank
  // The communication plan's prediction — equals the simulator's
  // SimResult::messages / volume_gbytes for the same (graph, dist).
  long long plan_messages = 0;
  double plan_volume_bytes = 0.0;
  net::ClockSync clock;    // this rank's startup clock-sync estimate
  net::CommCounters comm;  // measured wire traffic of this rank
  RunStats run;            // this rank's executor stats
  DistPhases phases;       // this rank's wall time, phase by phase
  std::vector<DistRankStats> ranks;  // rank 0 only: one entry per rank
};

// Factors `a` across comm.size() ranks. Every rank must call this with
// identical (a, b, list, dist) and dist.nodes() == comm.size(); collective
// over the communicator. Returns the local replica of the factors; on rank
// 0 it is complete (gathered) and bit-identical to
// qr_factorize_sequential(a, b, list, opts.ib). Throws hqr::Error on peer
// failure or progress timeout.
QRFactors dist_qr_factorize(net::Comm& comm, const Matrix& a, int b,
                            const EliminationList& list,
                            const Distribution& dist, const DistOptions& opts,
                            DistStats* stats = nullptr);

}  // namespace hqr::distrun
