// Quickstart: factor a random matrix with the hierarchical QR algorithm,
// executed by the shared-memory runtime, and verify the result the way the
// paper does (§V-A): Q has orthonormal columns and A = QR to machine
// precision.
//
//   ./quickstart [--m=600] [--n=360] [--b=40] [--p=4] [--a=2]
//                [--low=greedy] [--high=fibonacci] [--threads=4]
//                [--sched=steal|global]
//                [--trace=out.json] [--metrics=metrics.json] [--report]
#include <iostream>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "obs/obs_cli.hpp"
#include "runtime/executor.hpp"
#include "trees/hqr_tree.hpp"
#include "trees/validate.hpp"

using namespace hqr;

int main(int argc, char** argv) {
  Cli cli(argc, argv,
          obs::with_obs_flags({{"m", "600"},
                               {"n", "360"},
                               {"b", "40"},
                               {"p", "4"},
                               {"a", "2"},
                               {"low", "greedy"},
                               {"high", "fibonacci"},
                               {"domino", "true"},
                               {"threads", "4"},
                               {"sched", "steal"},
                               {"seed", "42"}}));
  const int m = static_cast<int>(cli.integer("m"));
  const int n = static_cast<int>(cli.integer("n"));
  const int b = static_cast<int>(cli.integer("b"));

  // 1. Build the input.
  Rng rng(static_cast<std::uint64_t>(cli.integer("seed")));
  Matrix a = random_gaussian(m, n, rng);

  // 2. Choose the reduction trees (the elimination list fully defines the
  //    algorithm, paper §II).
  HqrConfig cfg;
  cfg.p = static_cast<int>(cli.integer("p"));
  cfg.a = static_cast<int>(cli.integer("a"));
  cfg.low = tree_from_name(cli.str("low"));
  cfg.high = tree_from_name(cli.str("high"));
  cfg.domino = cli.flag("domino");

  const int mt = TiledMatrix::tile_count(m, b);
  const int nt = TiledMatrix::tile_count(n, b);
  EliminationList list = hqr_elimination_list(mt, nt, cfg);
  check_valid(list, mt, nt);
  std::cout << "algorithm: " << cfg.describe() << "\n"
            << "matrix: " << m << " x " << n << " elements, " << mt
            << " x " << nt << " tiles of " << b << "\n"
            << "eliminations: " << list.size() << "\n";

  // 3. Factor with the parallel runtime. The graph is built here (rather
  //    than inside qr_factorize_parallel) so the observability layer can
  //    trace the run and chase dependencies through it.
  obs::ObsSession obs(cli);
  ExecutorOptions opts;
  opts.threads = static_cast<int>(cli.integer("threads"));
  opts.scheduler = scheduler_kind_from_name(cli.str("sched"));
  opts.trace = obs.trace();
  opts.metrics = obs.metrics();
  TiledMatrix tiled = TiledMatrix::from_matrix(a, b);
  KernelList kernels = expand_to_kernels(list, mt, nt);
  TaskGraph graph(kernels, mt, nt);
  QRFactors f(std::move(tiled), std::move(kernels), opts.ib);
  Stopwatch sw;
  RunStats stats = execute_parallel(f, graph, opts);
  std::cout << "factorized in " << sw.seconds() << " s with " << stats.threads
            << " threads, " << scheduler_kind_name(opts.scheduler)
            << " scheduler (" << stats.total_tasks << " kernel tasks, "
            << 100.0 * stats.reuse_hit_rate() << "% data-reuse hits, "
            << stats.steals << " steals)\n";
  obs.finish(&graph);

  // 4. Verify.
  Matrix q = build_q(f);
  Matrix q_slice = materialize(q.block(0, 0, m, f.n()));
  Matrix r = extract_r(f);
  const double orth = orthogonality_error(q.view());
  const double resid = factorization_residual(a.view(), q_slice.view(), r.view());
  std::cout << "||Q^T Q - I||_F          = " << orth << "\n"
            << "||A - Q R||_F / ||A||_F  = " << resid << "\n";
  const bool ok = orth < 1e-12 && resid < 1e-12;
  std::cout << (ok ? "OK: checks satisfied to machine precision\n"
                   : "FAILURE: factorization inaccurate\n");
  return ok ? 0 : 1;
}
