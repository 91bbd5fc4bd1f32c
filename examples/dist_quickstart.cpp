// Distributed quickstart: factor a random matrix across several local
// ranks (forked processes talking over a socket mesh), verify on rank 0
// that the gathered result is bit-identical to a single-process
// factorization, and compare the measured message traffic head-to-head
// with the cluster simulator's prediction.
//
//   ./dist_quickstart [--ranks=4] [--m=1024] [--n=1024] [--b=128]
//                     [--dist=2d|block1d|cyclic1d] [--grid-p=2] [--grid-q=2]
//                     [--p=4] [--a=2] [--low=greedy] [--high=fibonacci]
//                     [--threads=2] [--ib=0]
//                     [--transport=unix|tcp] [--bcast=binomial|eager]
//                     [--timeout=120] [--seed=42]
//                     [--trace=dist_trace] [--progress]
//
// --transport picks how the rank mesh is wired: "unix" (default) forks over
// pre-connected socketpairs, "tcp" runs the loopback rendezvous + all-pairs
// TCP mesh that a multi-host launcher would use. --bcast picks how a
// completed tile reaches its consumer ranks: "binomial" (default) relays
// down a broadcast tree, "eager" posts every copy from the producer. Both
// choices leave the factors and the total message count bit-for-bit
// unchanged — only the wiring and the per-rank send counts move.
//
// With --trace (or its older spelling --trace-prefix), every rank writes
// <prefix>.rank<r>.csv — clock-aligned via the startup sync handshake and
// carrying one flow-event half per inter-rank tile message — and the parent
// merges them into <prefix>.json (one Perfetto process row per rank, one
// thread track per worker, arrows for tile transfers). The parent then
// cross-checks the dynamic trace against the static CommPlan: complete
// flow count must equal the planned message count, causally ordered.
//
// With --progress, ranks stream telemetry heartbeats to rank 0, which
// prints live per-rank progress (tasks done, send-queue depth, data
// traffic) on stderr while the DAG executes.
//
// Rank 0 prints every rank's traffic and its phase split: tiling, plan plus
// clock sync, engine, post-engine flush, gather and Bye.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "dag/partition.hpp"
#include "distrun/dist_exec.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "net/launcher.hpp"
#include "simcluster/simulator.hpp"
#include "trees/hqr_tree.hpp"
#include "trees/validate.hpp"

using namespace hqr;

namespace {

Distribution make_distribution(const Cli& cli, int ranks, int mt) {
  const std::string kind = cli.str("dist");
  if (kind == "2d") {
    const int p = static_cast<int>(cli.integer("grid-p"));
    const int q = static_cast<int>(cli.integer("grid-q"));
    HQR_CHECK(p * q == ranks, "--grid-p * --grid-q must equal --ranks");
    return Distribution::block_cyclic_2d(p, q);
  }
  if (kind == "block1d") return Distribution::block_1d(ranks, mt);
  if (kind == "cyclic1d") return Distribution::cyclic_1d(ranks);
  HQR_CHECK(false, "unknown --dist '" << kind << "' (want 2d|block1d|cyclic1d)");
}

// Bitwise comparison of two factorizations (tiles and T factors).
bool bit_identical(const QRFactors& x, const QRFactors& y) {
  const Matrix ax = x.a().to_padded_matrix();
  const Matrix ay = y.a().to_padded_matrix();
  for (int j = 0; j < ax.cols(); ++j)
    for (int i = 0; i < ax.rows(); ++i)
      if (ax(i, j) != ay(i, j)) return false;
  for (const KernelOp& op : x.kernels()) {
    ConstMatrixView tx, ty;
    if (op.type == KernelType::GEQRT) {
      tx = x.t_geqrt(op.row, op.k);
      ty = y.t_geqrt(op.row, op.k);
    } else if (op.type == KernelType::TSQRT || op.type == KernelType::TTQRT) {
      tx = x.t_pencil(op.row, op.k);
      ty = y.t_pencil(op.row, op.k);
    } else {
      continue;
    }
    for (int j = 0; j < tx.cols; ++j)
      for (int i = 0; i < tx.rows; ++i)
        if (tx(i, j) != ty(i, j)) return false;
  }
  return true;
}

BroadcastKind bcast_from_name(const std::string& name) {
  if (name == "binomial") return BroadcastKind::Binomial;
  if (name == "eager") return BroadcastKind::Eager;
  HQR_CHECK(false, "unknown --bcast '" << name << "' (want binomial|eager)");
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv, {{"ranks", "4"},
                       {"m", "1024"},
                       {"n", "1024"},
                       {"b", "128"},
                       {"dist", "2d"},
                       {"grid-p", "2"},
                       {"grid-q", "2"},
                       {"p", "4"},
                       {"a", "2"},
                       {"low", "greedy"},
                       {"high", "fibonacci"},
                       {"domino", "true"},
                       {"threads", "2"},
                       {"ib", "0"},
                       {"transport", "unix"},
                       {"bcast", "binomial"},
                       {"timeout", "120"},
                       {"seed", "42"},
                       {"trace", ""},
                       {"trace-prefix", ""},
                       {"progress", "false"}});
  const int ranks = static_cast<int>(cli.integer("ranks"));
  const int m = static_cast<int>(cli.integer("m"));
  const int n = static_cast<int>(cli.integer("n"));
  const int b = static_cast<int>(cli.integer("b"));
  const int mt = TiledMatrix::tile_count(m, b);
  const int nt = TiledMatrix::tile_count(n, b);
  const BroadcastKind bcast = bcast_from_name(cli.str("bcast"));
  const double timeout = static_cast<double>(cli.integer("timeout"));
  const std::string trace_prefix =
      !cli.str("trace").empty() ? cli.str("trace") : cli.str("trace-prefix");
  const bool progress = cli.flag("progress");

  // Everything each rank needs is rebuilt deterministically from the CLI
  // arguments inside the child — nothing is shipped at startup.
  const auto rank_main = [&](net::Comm& comm) -> int {
    Rng rng(static_cast<std::uint64_t>(cli.integer("seed")));
    Matrix a = random_gaussian(m, n, rng);

    HqrConfig cfg;
    cfg.p = static_cast<int>(cli.integer("p"));
    cfg.a = static_cast<int>(cli.integer("a"));
    cfg.low = tree_from_name(cli.str("low"));
    cfg.high = tree_from_name(cli.str("high"));
    cfg.domino = cli.flag("domino");
    EliminationList list = hqr_elimination_list(mt, nt, cfg);
    check_valid(list, mt, nt);

    const Distribution dist = make_distribution(cli, ranks, mt);

    obs::TraceRecorder trace;
    distrun::DistOptions opts;
    opts.threads = static_cast<int>(cli.integer("threads"));
    opts.ib = static_cast<int>(cli.integer("ib"));
    opts.broadcast = bcast;
    opts.progress_timeout_seconds = timeout;
    if (!trace_prefix.empty()) opts.trace = &trace;
    if (progress) {
      opts.telemetry_interval_seconds = 0.25;
      if (comm.rank() == 0) {
        opts.on_telemetry = [](const distrun::DistTelemetry& t) {
          std::fprintf(stderr,
                       "[progress] rank %d: %lld/%lld tasks, sendq %lld "
                       "frames, data %lld out / %lld in\n",
                       t.rank, t.tasks_done, t.tasks_total,
                       t.send_queue_frames, t.data_messages_sent,
                       t.data_messages_recv);
        };
      }
    }

    distrun::DistStats stats;
    QRFactors f = distrun::dist_qr_factorize(comm, a, b, list, dist, opts,
                                             &stats);
    if (!trace_prefix.empty())
      trace.save_csv(trace_prefix + ".rank" + std::to_string(comm.rank()) +
                     ".csv");
    if (comm.rank() != 0) return 0;

    std::cout << "algorithm: " << cfg.describe() << "\n"
              << "matrix: " << m << " x " << n << " elements, " << mt
              << " x " << nt << " tiles of " << b << "\n"
              << "ranks: " << ranks << " (" << dist.describe() << "), "
              << opts.threads << " thread(s) each\n"
              << "transport: " << cli.str("transport") << ", broadcast: "
              << cli.str("bcast") << "\n"
              << "factorized in " << stats.seconds << " s\n";

    TextTable t({"rank", "tasks", "msgs sent", "bytes sent", "msgs recv"});
    for (const distrun::DistRankStats& r : stats.ranks)
      t.row()
          .add(r.rank)
          .add(r.tasks)
          .add(r.data_messages_sent)
          .add(r.data_bytes_sent)
          .add(r.data_messages_recv);
    t.print(std::cout);

    // Where each rank's time went. A rank > 0 ships its split in its Stats
    // frame, before it awaits Bye, so its bye column reads 0 here.
    TextTable ph({"rank", "tiling ms", "plan+sync ms", "engine ms",
                  "flush ms", "gather ms", "bye ms"});
    for (const distrun::DistRankStats& r : stats.ranks)
      ph.row()
          .add(r.rank)
          .add(1e3 * r.phases.tiling, 3)
          .add(1e3 * r.phases.plan_sync, 3)
          .add(1e3 * r.phases.engine, 3)
          .add(1e3 * r.phases.flush, 3)
          .add(1e3 * r.phases.gather, 3)
          .add(1e3 * r.phases.bye, 3);
    ph.print(std::cout);

    // Measured traffic vs the simulator's model, same graph + distribution.
    long long measured_msgs = 0;
    for (const distrun::DistRankStats& r : stats.ranks)
      measured_msgs += r.data_messages_sent;
    KernelList kernels = expand_to_kernels(list, mt, nt);
    TaskGraph graph(kernels, mt, nt);
    SimOptions sopts;
    sopts.b = b;
    sopts.broadcast = bcast;
    const SimResult sim = simulate_qr(graph, dist, m, n, sopts);
    std::cout << "messages: measured " << measured_msgs << ", planned "
              << stats.plan_messages << ", simulated " << sim.messages << "\n"
              << "model volume: " << stats.plan_volume_bytes / 1e9
              << " GB (simulator: " << sim.volume_gbytes << " GB)\n";
    const bool msgs_ok =
        measured_msgs == stats.plan_messages && sim.messages == measured_msgs;

    // Verify: gathered factors must be bit-identical to a one-process run,
    // and A = QR to machine precision.
    QRFactors ref = qr_factorize_sequential(a, b, list, opts.ib);
    const bool identical = bit_identical(f, ref);
    std::cout << "bit-identical to single-process run: "
              << (identical ? "yes" : "NO") << "\n";
    Matrix q = build_q(f);
    Matrix q_slice = materialize(q.block(0, 0, m, f.n()));
    Matrix r = extract_r(f);
    const double orth = orthogonality_error(q.view());
    const double resid =
        factorization_residual(a.view(), q_slice.view(), r.view());
    std::cout << "||Q^T Q - I||_F          = " << orth << "\n"
              << "||A - Q R||_F / ||A||_F  = " << resid << "\n";
    const bool ok = identical && msgs_ok && orth < 1e-12 && resid < 1e-12;
    std::cout << (ok ? "OK: distributed run verified\n"
                     : "FAILURE: distributed run wrong\n");
    return ok ? 0 : 1;
  };

  net::LaunchOptions lopts;
  lopts.timeout_seconds = timeout > 0 ? timeout * 2 : 0;
  lopts.transport.kind = cli.str("transport");
  const int rc = net::run_ranks(ranks, rank_main, lopts);
  if (rc != 0) {
    std::cerr << "distributed run failed (exit " << rc << ")\n";
    return rc;
  }
  if (!trace_prefix.empty()) {
    std::vector<std::string> csvs;
    for (int r = 0; r < ranks; ++r)
      csvs.push_back(trace_prefix + ".rank" + std::to_string(r) + ".csv");
    const obs::TraceRecorder merged = obs::merge_rank_traces(csvs);
    merged.save_chrome_json(trace_prefix + ".json");
    std::cout << "merged trace: " << trace_prefix << ".json (" << merged.size()
              << " tasks, " << merged.complete_flow_count() << " flows)\n";

    // Cross-check the dynamic trace against the static plan the ranks
    // executed (rebuilt deterministically from the same CLI arguments):
    // every planned inter-rank message must appear as one paired flow whose
    // aligned send timestamp precedes its receive timestamp.
    HqrConfig cfg;
    cfg.p = static_cast<int>(cli.integer("p"));
    cfg.a = static_cast<int>(cli.integer("a"));
    cfg.low = tree_from_name(cli.str("low"));
    cfg.high = tree_from_name(cli.str("high"));
    cfg.domino = cli.flag("domino");
    const EliminationList list = hqr_elimination_list(mt, nt, cfg);
    const Distribution dist = make_distribution(cli, ranks, mt);
    const KernelList kernels = expand_to_kernels(list, mt, nt);
    const TaskGraph graph(kernels, mt, nt);
    const CommPlan plan(graph, dist, bcast_from_name(cli.str("bcast")));

    long long complete = 0, causal = 0;
    for (const obs::FlowEvent& fl : merged.flows()) {
      if (!fl.complete()) continue;
      ++complete;
      if (fl.send_time < fl.recv_time) ++causal;
    }
    std::cout << "flow events: " << complete << " paired (planned "
              << plan.messages() << "), " << causal
              << " causally ordered after clock alignment\n";
    if (complete != plan.messages() || causal != complete) {
      std::cerr << "FAILURE: trace flows disagree with the plan\n";
      return 1;
    }
  }
  return 0;
}
