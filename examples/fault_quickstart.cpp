// Fault-tolerance quickstart: factor a matrix across local ranks while a
// deterministic fault plan kills one of them mid-run, let the launcher fork
// a replacement that re-executes the lost partition, and verify that the
// recovered factorization is bit-identical to the fault-free sequential
// run. Then cross-validate the recovery cost against the cluster
// simulator's prediction for the same plan: the number of tasks the
// replacement re-executes is deterministic (the victim's partition size),
// so sim == measured == CommPlan::tasks_on(victim) must hold exactly,
// while replayed-frame counts are timing-dependent and only bounded by
// CommPlan::received_by(victim).
//
//   ./fault_quickstart [--ranks=4] [--m=768] [--n=768] [--b=128]
//                      [--plan='kill:2@3'] [--transport=unix|tcp]
//                      [--bcast=binomial|eager] [--threads=2]
//                      [--timeout=120] [--seed=42] [--trace=ft_trace]
//
// --plan uses the fault/plan.hpp grammar: kill:<rank>@<k>,
// drop:<rank>-<peer>@<k>, delay:<rank>-<peer>@<k>+<seconds>, joined by
// ';'. Recovery is transport-blind (replacements receive their mesh as
// passed descriptors), so the same run works under unix and tcp.
//
// With --trace, every surviving rank writes <prefix>.rank<r>.csv and the
// parent merges them into <prefix>.json, same as dist_quickstart. A killed
// victim never writes its file — the replacement does, so under a kill
// plan the merged timeline shows the victim's row going quiet at the kill
// and the replacement's re-execution plus the survivors' replay flows.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "dag/partition.hpp"
#include "distrun/dist_exec.hpp"
#include "fault/ft_launcher.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "obs/trace.hpp"
#include "simcluster/simulator.hpp"
#include "trees/hqr_tree.hpp"
#include "trees/validate.hpp"

using namespace hqr;

namespace {

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

// Per-rank fault stats cross the launcher process boundary as a small
// fragment file written by rank 0 (the rank that gathered them).
void write_fragment(const std::string& path,
                    const std::vector<distrun::DistRankStats>& ranks) {
  std::ofstream out(path);
  HQR_CHECK(out.good(), "cannot write " << path);
  for (const distrun::DistRankStats& r : ranks)
    out << "rank " << r.rank << ' ' << r.incarnation << ' ' << r.tasks << ' '
        << r.faults_injected << ' ' << r.peers_down << ' ' << r.peers_replaced
        << ' ' << r.frames_dropped << ' ' << r.frames_replayed << ' '
        << r.bytes_replayed << ' ' << r.data_messages_sent << '\n';
  HQR_CHECK(out.good(), "write to " << path << " failed");
}

std::vector<distrun::DistRankStats> read_fragment(const std::string& path) {
  std::ifstream in(path);
  HQR_CHECK(in.good(), "missing fragment " << path
                                           << " (did rank 0 fail early?)");
  std::vector<distrun::DistRankStats> ranks;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    distrun::DistRankStats r;
    ls >> key >> r.rank >> r.incarnation >> r.tasks >> r.faults_injected >>
        r.peers_down >> r.peers_replaced >> r.frames_dropped >>
        r.frames_replayed >> r.bytes_replayed >> r.data_messages_sent;
    HQR_CHECK(key == "rank" && ls, "malformed fragment line '" << line << "'");
    ranks.push_back(r);
  }
  return ranks;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv, {{"ranks", "4"},
                       {"m", "768"},
                       {"n", "768"},
                       {"b", "128"},
                       {"grid-p", "2"},
                       {"grid-q", "2"},
                       {"p", "4"},
                       {"a", "2"},
                       {"low", "greedy"},
                       {"high", "fibonacci"},
                       {"domino", "true"},
                       {"threads", "2"},
                       {"plan", "kill:2@3"},
                       {"transport", "unix"},
                       {"bcast", "binomial"},
                       {"timeout", "120"},
                       {"seed", "42"},
                       {"trace", ""}});
  const int ranks = static_cast<int>(cli.integer("ranks"));
  const int m = static_cast<int>(cli.integer("m"));
  const int n = static_cast<int>(cli.integer("n"));
  const int b = static_cast<int>(cli.integer("b"));
  const int mt = TiledMatrix::tile_count(m, b);
  const int nt = TiledMatrix::tile_count(n, b);
  const int gp = static_cast<int>(cli.integer("grid-p"));
  const int gq = static_cast<int>(cli.integer("grid-q"));
  HQR_CHECK(gp * gq == ranks, "--grid-p * --grid-q must equal --ranks");
  const BroadcastKind bcast =
      cli.str("bcast") == "eager" ? BroadcastKind::Eager
                                  : BroadcastKind::Binomial;
  const double timeout = static_cast<double>(cli.integer("timeout"));
  const std::string trace_prefix = cli.str("trace");
  const fault::FaultPlan fplan = fault::FaultPlan::parse(cli.str("plan"));
  const std::string fragment =
      "fault_quickstart_" + cli.str("transport") + ".tmp";

  const auto rank_main = [&](net::Comm& comm,
                             const fault::FtRankContext& ctx) -> int {
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
    const Distribution dist = Distribution::block_cyclic_2d(gp, gq);

    obs::TraceRecorder trace;
    distrun::DistOptions opts;
    opts.threads = static_cast<int>(cli.integer("threads"));
    opts.broadcast = bcast;
    opts.progress_timeout_seconds = timeout;
    if (!trace_prefix.empty()) opts.trace = &trace;
    opts.fault.faults = ctx.faults;
    opts.fault.recovery = true;
    opts.fault.is_replacement = ctx.is_replacement;
    opts.fault.incarnation = ctx.incarnation;
    opts.fault.control_fd = ctx.control_fd;
    opts.fault.on_failure = [&](const fault::RankFailure& f) {
      std::fprintf(stderr, "[rank %d] observed: %s\n", comm.rank(),
                   f.describe().c_str());
    };

    distrun::DistStats stats;
    QRFactors f =
        distrun::dist_qr_factorize(comm, a, b, list, dist, opts, &stats);
    if (!trace_prefix.empty())
      trace.save_csv(trace_prefix + ".rank" + std::to_string(comm.rank()) +
                     ".csv");
    if (comm.rank() != 0) return 0;

    write_fragment(fragment, stats.ranks);
    std::cout << "plan: " << fplan.describe() << "\n"
              << "matrix: " << m << " x " << n << ", tiles " << mt
              << " x " << nt << " of " << b << ", ranks " << ranks
              << " (" << dist.describe() << ")\n"
              << "transport: " << cli.str("transport") << ", broadcast: "
              << cli.str("bcast") << "\n"
              << "factorized in " << stats.seconds << " s\n";
    TextTable t({"rank", "inc", "tasks", "sent", "replayed", "dropped",
                 "peers down"});
    for (const distrun::DistRankStats& r : stats.ranks)
      t.row()
          .add(r.rank)
          .add(r.incarnation)
          .add(r.tasks)
          .add(r.data_messages_sent)
          .add(r.frames_replayed)
          .add(r.frames_dropped)
          .add(r.peers_down);
    t.print(std::cout);

    // The recovered factorization must be bit-identical to the fault-free
    // sequential run — recovery is exact re-execution, not approximation.
    QRFactors ref = qr_factorize_sequential(a, b, list, opts.ib);
    const bool identical = bit_identical(f, ref);
    Matrix q = build_q(f);
    Matrix q_slice = materialize(q.block(0, 0, m, f.n()));
    Matrix r = extract_r(f);
    const double orth = orthogonality_error(q.view());
    const double resid =
        factorization_residual(a.view(), q_slice.view(), r.view());
    std::cout << "bit-identical to fault-free sequential run: "
              << (identical ? "yes" : "NO") << "\n"
              << "||Q^T Q - I||_F          = " << orth << "\n"
              << "||A - Q R||_F / ||A||_F  = " << resid << "\n";
    return identical && orth < 1e-12 && resid < 1e-12 ? 0 : 1;
  };

  fault::FtLaunchOptions lopts;
  lopts.launch.timeout_seconds = timeout > 0 ? timeout * 2 : 0;
  lopts.launch.transport.kind = cli.str("transport");
  lopts.plan = fplan;
  const fault::FtLaunchReport report = run_ranks_ft(ranks, rank_main, lopts);
  for (const fault::RankFailure& f : report.failures)
    std::cout << "launcher observed: " << f.describe() << "\n";
  std::cout << "replacements forked: " << report.replacements_forked
            << ", links re-wired: " << report.links_rewired << "\n";
  if (!report.ok()) {
    std::cerr << "FAILURE: recovered run did not verify (rank "
              << report.launch.failed_rank << ")\n";
    return 1;
  }
  if (!trace_prefix.empty()) {
    std::vector<std::string> csvs;
    for (int r = 0; r < ranks; ++r)
      csvs.push_back(trace_prefix + ".rank" + std::to_string(r) + ".csv");
    const obs::TraceRecorder merged = obs::merge_rank_traces(csvs);
    merged.save_chrome_json(trace_prefix + ".json");
    std::cout << "merged trace: " << trace_prefix << ".json (" << merged.size()
              << " tasks, " << merged.complete_flow_count() << " flows)\n";
    for (int r = 0; r < ranks; ++r)
      std::remove((trace_prefix + ".rank" + std::to_string(r) + ".csv").c_str());
  }

  // Cross-validate the measured recovery against the simulator's
  // prediction for the same fault plan.
  const std::vector<distrun::DistRankStats> measured = read_fragment(fragment);
  std::remove(fragment.c_str());
  HqrConfig cfg;
  cfg.p = static_cast<int>(cli.integer("p"));
  cfg.a = static_cast<int>(cli.integer("a"));
  cfg.low = tree_from_name(cli.str("low"));
  cfg.high = tree_from_name(cli.str("high"));
  cfg.domino = cli.flag("domino");
  const EliminationList list = hqr_elimination_list(mt, nt, cfg);
  const KernelList kernels = expand_to_kernels(list, mt, nt);
  const TaskGraph graph(kernels, mt, nt);
  const Distribution dist = Distribution::block_cyclic_2d(gp, gq);
  const CommPlan plan(graph, dist, bcast);
  SimOptions sopts;
  sopts.b = b;
  sopts.broadcast = bcast;
  sopts.fault_plan = fplan;
  const SimResult sim = simulate_qr(graph, dist, m, n, sopts);

  bool ok = true;
  for (const fault::FaultAction& act : fplan.actions) {
    if (act.kind != fault::FaultKind::KillRank) continue;
    const int victim = act.rank;
    const distrun::DistRankStats& vic = measured[static_cast<std::size_t>(victim)];
    const long long planned = plan.tasks_on(victim);
    long long replayed = 0;
    for (const distrun::DistRankStats& r : measured)
      replayed += r.frames_replayed;
    std::cout << "victim rank " << victim << ": incarnation "
              << vic.incarnation << "\n"
              << "tasks re-executed: measured " << vic.tasks << ", simulated "
              << sim.tasks_reexecuted << ", partition size " << planned << "\n"
              << "frames replayed: measured " << replayed << ", simulated "
              << sim.messages_replayed << ", bound (received_by) "
              << plan.received_by(victim) << "\n"
              << "replacement sends: measured " << vic.data_messages_sent
              << ", plan sent_by " << plan.sent_by(victim) << "\n"
              << "simulated recovery: kill at " << sim.kill_seconds
              << " s, makespan " << sim.seconds << " s\n";
    // Deterministic quantity: exact agreement required.
    ok = ok && vic.incarnation >= 1 && vic.tasks == planned &&
         sim.tasks_reexecuted == planned;
    // Timing-dependent quantities: the plan bounds them.
    ok = ok && replayed <= plan.received_by(victim) &&
         sim.messages_replayed <= plan.received_by(victim) &&
         vic.data_messages_sent == plan.sent_by(victim);
  }
  std::cout << (ok ? "OK: recovery verified and cross-validated\n"
                   : "FAILURE: recovery cross-validation failed\n");
  return ok ? 0 : 1;
}
