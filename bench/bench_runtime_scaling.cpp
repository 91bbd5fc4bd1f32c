// Real-execution benchmark of the shared-memory runtime ("DAGuE-lite"):
// factors an actual matrix with the from-scratch kernels across thread
// counts, scheduler backends and policies. On a many-core host this shows
// the parallel scaling of the tile DAG; the backend column is the
// work-stealing vs global-queue ablation (--sched={both,steal,global}),
// the policy columns the scheduler-design ablation (priority vs FIFO,
// data-reuse on/off). Pass --json=PATH for machine-readable results with
// the per-run scheduler counters (local hits, steals, overflow pops).
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "linalg/random_matrix.hpp"
#include "obs/obs_cli.hpp"
#include "runtime/executor.hpp"
#include "simcluster/simulator.hpp"
#include "trees/hqr_tree.hpp"

using namespace hqr;

namespace {

struct RunRow {
  int threads;
  SchedulerKind sched;
  bool priority;
  bool reuse;
  double seconds;
  double gflops;
  RunStats stats;
};

void write_json(const std::string& path, int m, int n, int b, int ib,
                const std::vector<RunRow>& rows) {
  std::ofstream out(path);
  HQR_CHECK(out.good(), "cannot write " << path);
  out << "{\n  \"schema\": \"hqr-bench-runtime-v1\",\n"
      << "  \"m\": " << m << ", \"n\": " << n << ", \"b\": " << b
      << ", \"ib\": " << ib << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunRow& r = rows[i];
    out << "    {\"threads\": " << r.threads << ", \"sched\": \""
        << scheduler_kind_name(r.sched) << "\", \"policy\": \""
        << (r.priority ? "cp-priority" : "fifo") << "\", \"data_reuse\": "
        << (r.reuse ? "true" : "false") << ", \"seconds\": " << r.seconds
        << ", \"gflops\": " << r.gflops << ", \"tasks\": "
        << r.stats.total_tasks << ", \"reuse_hits\": " << r.stats.reuse_hits
        << ", \"queue_pops\": " << r.stats.queue_pops << ", \"local_hits\": "
        << r.stats.local_hits << ", \"steals\": " << r.stats.steals
        << ", \"steal_fails\": " << r.stats.steal_fails
        << ", \"overflow_pops\": " << r.stats.overflow_pops << "}"
        << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::cout << "(json written to " << path << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv,
          obs::with_obs_flags({{"m", "768"},
                               {"n", "512"},
                               {"b", "64"},
                               {"ib", "0"},
                               {"sched", "both"},
                               {"json", ""},
                               {"csv", ""}}));
  const int m = static_cast<int>(cli.integer("m"));
  const int n = static_cast<int>(cli.integer("n"));
  const int b = static_cast<int>(cli.integer("b"));
  const int ib = static_cast<int>(cli.integer("ib"));
  std::vector<SchedulerKind> scheds;
  if (cli.str("sched") == "both") {
    scheds = {SchedulerKind::Steal, SchedulerKind::Global};
  } else {
    scheds = {scheduler_kind_from_name(cli.str("sched"))};
  }

  Rng rng(11);
  Matrix a = random_gaussian(m, n, rng);
  const int mt = TiledMatrix::tile_count(m, b);
  const int nt = TiledMatrix::tile_count(n, b);
  HqrConfig cfg{4, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
  auto list = hqr_elimination_list(mt, nt, cfg);
  const double gflop = qr_useful_flops(m, n) / 1e9;

  std::vector<RunRow> rows;
  TextTable table({"threads", "sched", "policy", "data-reuse", "seconds",
                   "GFlop/s", "tasks", "local", "steals", "overflow"});
  for (int threads : {1, 2, 4, 8}) {
    for (SchedulerKind sched : scheds) {
      for (bool priority : {true, false}) {
        for (bool reuse : {true, false}) {
          if (!priority && reuse) continue;  // reuse needs priorities
          ExecutorOptions opts{threads, priority, reuse, ib, sched};
          RunStats stats;
          Stopwatch sw;
          QRFactors f = qr_factorize_parallel(a, b, list, opts, &stats);
          const double secs = sw.seconds();
          (void)f;
          table.row()
              .add(threads)
              .add(scheduler_kind_name(sched))
              .add(priority ? "cp-priority" : "fifo")
              .add(reuse ? "on" : "off")
              .add(secs, 4)
              .add(gflop / secs, 4)
              .add(stats.total_tasks)
              .add(stats.local_hits)
              .add(stats.steals)
              .add(stats.overflow_pops);
          rows.push_back(
              {threads, sched, priority, reuse, secs, gflop / secs, stats});
        }
      }
    }
  }
  bench::emit(table, cli, "Runtime scaling (real kernels, this host)");
  if (!cli.str("json").empty()) write_json(cli.str("json"), m, n, b, ib, rows);

  // Observed rerun of the strongest configuration when --trace/--metrics/
  // --report were given (the sweep above stays unobserved so its timings
  // are clean).
  obs::ObsSession obs(cli);
  if (obs.any_enabled() || obs.report_requested()) {
    ExecutorOptions opts{8, true, true, ib, scheds.front()};
    opts.trace = obs.trace();
    opts.metrics = obs.metrics();
    TiledMatrix tiled = TiledMatrix::from_matrix(a, b);
    KernelList kernels = expand_to_kernels(list, mt, nt);
    TaskGraph graph(kernels, mt, nt);
    QRFactors f(std::move(tiled), std::move(kernels), opts.ib);
    RunStats stats = execute_parallel(f, graph, opts);
    std::cout << "\nobserved rerun (8 threads, "
              << scheduler_kind_name(opts.scheduler)
              << ", cp-priority, data-reuse): " << stats.local_hits
              << " local pops, " << stats.steals << " steals, "
              << stats.steal_fails << " failed attempts, "
              << stats.overflow_pops << " overflow pops\n";
    obs.finish(&graph);
  }
  return 0;
}
