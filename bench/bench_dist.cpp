// Distributed-runtime benchmark: factor the same matrix while trading
// ranks for threads at a fixed total core count (e.g. 8 cores as 1x8,
// 2x4, 4x2, 8x1 ranks x threads). Each configuration forks real worker
// processes over the local socket mesh, so the measured makespan includes
// genuine message traffic; the messages/bytes columns show the price of
// distributing the DAG (they match the cluster simulator's model count by
// construction). Pass --json=PATH for machine-readable results
// (hqr-bench-dist-v2, see EXPERIMENTS.md): per-configuration totals plus a
// per_rank breakdown with busy/idle seconds, the longest Data-starvation
// gap (max_recv_wait_seconds) and wire message counts by tag. Pass
// --progress to stream live per-rank telemetry to stderr while each
// configuration runs. --transport=unix|tcp picks the rank mesh wiring and
// --bcast=binomial|eager the tile broadcast shape (see dist_exec.hpp);
// neither changes the total message count, only where time and sends land.
//
// Every configuration runs in forked children, so results cross process
// boundaries via a small fragment file written by rank 0 and re-read by
// the parent.
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "dag/partition.hpp"
#include "distrun/dist_exec.hpp"
#include "linalg/random_matrix.hpp"
#include "net/launcher.hpp"
#include "obs/metrics.hpp"
#include "trees/hqr_tree.hpp"

using namespace hqr;

namespace {

// Near-square process grid for `ranks` nodes (largest divisor <= sqrt).
void pick_grid(int ranks, int* p, int* q) {
  *p = 1;
  for (int d = 1; d * d <= ranks; ++d)
    if (ranks % d == 0) *p = d;
  *q = ranks / *p;
}

struct ConfigResult {
  int ranks = 0;
  int threads = 0;
  double seconds = 0.0;
  long long messages = 0;
  long long bytes = 0;
  std::vector<double> idle;  // per-rank worker idle seconds (summed)
  std::vector<double> busy;
  std::vector<distrun::DistRankStats> per_rank;
};

// One line per field; parsed back by the parent after run_ranks returns.
// Per-rank stats ride as one positional "rank ..." line each.
void write_fragment(const std::string& path, const distrun::DistStats& s) {
  std::ofstream out(path);
  HQR_CHECK(out.good(), "cannot write " << path);
  out.precision(17);
  long long msgs = 0, bytes = 0;
  std::ostringstream idle, busy;
  for (const distrun::DistRankStats& r : s.ranks) {
    msgs += r.data_messages_sent;
    bytes += r.data_bytes_sent;
    idle << ' ' << r.idle_seconds;
    busy << ' ' << r.busy_seconds;
  }
  out << "seconds " << s.seconds << "\nmessages " << msgs << "\nbytes "
      << bytes << "\nidle" << idle.str() << "\nbusy" << busy.str() << "\n";
  for (const distrun::DistRankStats& r : s.ranks) {
    out << "rank " << r.rank << ' ' << r.threads << ' ' << r.tasks << ' '
        << r.data_messages_sent << ' ' << r.data_bytes_sent << ' '
        << r.data_messages_recv << ' ' << r.data_bytes_recv << ' '
        << r.busy_seconds << ' ' << r.idle_seconds << ' '
        << r.max_recv_wait_seconds;
    for (long long v : r.messages_sent_by_tag) out << ' ' << v;
    for (long long v : r.messages_recv_by_tag) out << ' ' << v;
    out << '\n';
  }
  HQR_CHECK(out.good(), "write to " << path << " failed");
}

ConfigResult read_fragment(const std::string& path) {
  std::ifstream in(path);
  HQR_CHECK(in.good(), "missing bench fragment " << path);
  ConfigResult r;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "seconds") ls >> r.seconds;
    if (key == "messages") ls >> r.messages;
    if (key == "bytes") ls >> r.bytes;
    for (double v; (key == "idle" || key == "busy") && (ls >> v);)
      (key == "idle" ? r.idle : r.busy).push_back(v);
    if (key == "rank") {
      distrun::DistRankStats rs;
      ls >> rs.rank >> rs.threads >> rs.tasks >> rs.data_messages_sent >>
          rs.data_bytes_sent >> rs.data_messages_recv >> rs.data_bytes_recv >>
          rs.busy_seconds >> rs.idle_seconds >> rs.max_recv_wait_seconds;
      for (long long& v : rs.messages_sent_by_tag) ls >> v;
      for (long long& v : rs.messages_recv_by_tag) ls >> v;
      HQR_CHECK(ls, "malformed rank line in " << path << ": '" << line << "'");
      r.per_rank.push_back(rs);
    }
  }
  return r;
}

void write_tag_counts(std::ofstream& out, const char* name,
                      const std::array<long long, net::kTagCount>& counts) {
  out << "\"" << name << "\": {";
  bool first = true;
  for (int t = 1; t < net::kTagCount; ++t) {
    out << (first ? "" : ", ") << "\""
        << net::tag_name(static_cast<net::Tag>(t))
        << "\": " << counts[static_cast<std::size_t>(t)];
    first = false;
  }
  out << "}";
}

void write_json(const std::string& path, int m, int n, int b, int cores,
                const std::vector<ConfigResult>& rows) {
  std::ofstream out(path);
  HQR_CHECK(out.good(), "cannot write " << path);
  out << "{\n  \"schema\": \"hqr-bench-dist-v2\",\n"
      << "  \"m\": " << m << ", \"n\": " << n << ", \"b\": " << b
      << ", \"total_cores\": " << cores << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ConfigResult& r = rows[i];
    out << "    {\"ranks\": " << r.ranks << ", \"threads\": " << r.threads
        << ", \"seconds\": " << r.seconds << ", \"messages\": " << r.messages
        << ", \"bytes\": " << r.bytes << ", \"idle_seconds\": [";
    for (std::size_t k = 0; k < r.idle.size(); ++k)
      out << (k ? ", " : "") << r.idle[k];
    out << "], \"busy_seconds\": [";
    for (std::size_t k = 0; k < r.busy.size(); ++k)
      out << (k ? ", " : "") << r.busy[k];
    out << "], \"per_rank\": [";
    for (std::size_t k = 0; k < r.per_rank.size(); ++k) {
      const distrun::DistRankStats& rs = r.per_rank[k];
      out << (k ? "," : "") << "\n      {\"rank\": " << rs.rank
          << ", \"threads\": " << rs.threads << ", \"tasks\": " << rs.tasks
          << ", \"data_messages_sent\": " << rs.data_messages_sent
          << ", \"data_bytes_sent\": " << rs.data_bytes_sent
          << ", \"data_messages_recv\": " << rs.data_messages_recv
          << ", \"data_bytes_recv\": " << rs.data_bytes_recv
          << ", \"busy_seconds\": " << rs.busy_seconds
          << ", \"idle_seconds\": " << rs.idle_seconds
          << ", \"max_recv_wait_seconds\": " << rs.max_recv_wait_seconds
          << ", ";
      write_tag_counts(out, "messages_sent_by_tag", rs.messages_sent_by_tag);
      out << ", ";
      write_tag_counts(out, "messages_recv_by_tag", rs.messages_recv_by_tag);
      out << "}";
    }
    out << "\n    ]}" << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::cout << "(json written to " << path << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv, {{"m", "1024"},
                       {"n", "1024"},
                       {"b", "128"},
                       {"cores", "8"},
                       {"p", "4"},
                       {"a", "2"},
                       {"low", "greedy"},
                       {"high", "fibonacci"},
                       {"domino", "true"},
                       {"ib", "0"},
                       {"transport", "unix"},
                       {"bcast", "binomial"},
                       {"timeout", "300"},
                       {"json", ""},
                       {"csv", ""},
                       {"progress", "false"}});
  const int m = static_cast<int>(cli.integer("m"));
  const int n = static_cast<int>(cli.integer("n"));
  const int b = static_cast<int>(cli.integer("b"));
  const int mt = TiledMatrix::tile_count(m, b);
  const int nt = TiledMatrix::tile_count(n, b);
  const int cores = static_cast<int>(cli.integer("cores"));
  const std::string fragment = "bench_dist_fragment.tmp";

  std::vector<ConfigResult> rows;
  TextTable table({"ranks", "grid", "threads", "seconds", "messages",
                   "MB sent", "max idle s", "max wait s"});
  for (int ranks = 1; ranks <= cores; ranks *= 2) {
    const int threads = cores / ranks;
    int gp = 0, gq = 0;
    pick_grid(ranks, &gp, &gq);

    const auto rank_main = [&](net::Comm& comm) -> int {
      Rng rng(11);
      Matrix a = random_gaussian(m, n, rng);
      HqrConfig cfg;
      cfg.p = static_cast<int>(cli.integer("p"));
      cfg.a = static_cast<int>(cli.integer("a"));
      cfg.low = tree_from_name(cli.str("low"));
      cfg.high = tree_from_name(cli.str("high"));
      cfg.domino = cli.flag("domino");
      EliminationList list = hqr_elimination_list(mt, nt, cfg);
      const Distribution dist = Distribution::block_cyclic_2d(gp, gq);

      distrun::DistOptions opts;
      opts.threads = threads;
      opts.ib = static_cast<int>(cli.integer("ib"));
      opts.broadcast = cli.str("bcast") == "eager" ? BroadcastKind::Eager
                                                   : BroadcastKind::Binomial;
      opts.progress_timeout_seconds =
          static_cast<double>(cli.integer("timeout"));
      // Attach a metrics sink so the executor records per-worker busy/idle
      // (unobserved runs skip that bookkeeping, like RunStats).
      obs::MetricsRegistry metrics;
      opts.metrics = &metrics;
      if (cli.flag("progress")) {
        opts.telemetry_interval_seconds = 0.5;
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
      QRFactors f =
          distrun::dist_qr_factorize(comm, a, b, list, dist, opts, &stats);
      (void)f;
      if (comm.rank() == 0) write_fragment(fragment, stats);
      return 0;
    };

    net::LaunchOptions lopts;
    lopts.timeout_seconds = 2.0 * static_cast<double>(cli.integer("timeout"));
    lopts.transport.kind = cli.str("transport");
    const int rc = net::run_ranks(ranks, rank_main, lopts);
    HQR_CHECK(rc == 0, "distributed run failed for ranks=" << ranks
                                                           << " (exit " << rc
                                                           << ")");
    ConfigResult r = read_fragment(fragment);
    r.ranks = ranks;
    r.threads = threads;
    double max_idle = 0.0;
    for (double v : r.idle) max_idle = std::max(max_idle, v);
    double max_wait = 0.0;
    for (const distrun::DistRankStats& rs : r.per_rank)
      max_wait = std::max(max_wait, rs.max_recv_wait_seconds);
    table.row()
        .add(ranks)
        .add(std::to_string(gp) + "x" + std::to_string(gq))
        .add(threads)
        .add(r.seconds, 4)
        .add(r.messages)
        .add(static_cast<double>(r.bytes) / 1e6, 2)
        .add(max_idle, 4)
        .add(max_wait, 4);
    rows.push_back(std::move(r));
  }
  std::remove(fragment.c_str());

  bench::emit(table, cli,
              "Distributed runtime: ranks vs threads at " +
                  std::to_string(cores) + " total cores");
  if (!cli.str("json").empty())
    write_json(cli.str("json"), m, n, b, cores, rows);
  return 0;
}
