// In-process layers: the ts-lsq and square-qr workloads, the isolated
// linalg/kernel probes, and the per-layer accounting of factorization calls.
#include <malloc.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <iostream>

#include "bench.hpp"
#include "common/rng.hpp"
#include "kernels/ib_kernels.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "runtime/qr.hpp"

namespace hqr::bench {

namespace {

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

// Heap bytes in use (main arena plus mmapped chunks).
double heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

// ---- ts-lsq / square-qr ----

struct LocalProblem {
  bool solve = false;
  Matrix a;
  Matrix rhs;
  QROptions opts;
  int mt = 0, nt = 0;
};

struct LocalOut {
  Matrix x;  // solve
  Matrix q;  // square
  Matrix r;
};

LocalProblem make_problem(const Config& c, std::uint64_t seed, bool solve) {
  LocalProblem p;
  p.solve = solve;
  Rng rng(seed);
  p.a = solve ? random_gaussian(c.ts_m, c.ts_n, rng)
              : random_gaussian(c.sq_n, c.sq_n, rng);
  if (solve) p.rhs = random_gaussian(c.ts_m, c.ts_nrhs, rng);
  // auto_tree = false pins the paper's tree; ib must then be explicit or
  // qr() clamps it to 1 (README.md).
  p.opts.b = c.b;
  p.opts.ib = c.ib;
  p.opts.threads = c.threads;
  p.opts.auto_tree = false;
  p.opts.tree = solve ? c.ts_tree : c.sq_tree;
  p.mt = (p.a.rows() + c.b - 1) / c.b;
  p.nt = (p.a.cols() + c.b - 1) / c.b;
  return p;
}

LocalOut one_call(const LocalProblem& p) {
  LocalOut out;
  if (p.solve) {
    out.x = qr_solve(p.a, p.rhs, p.opts);
  } else {
    QRResult res = qr(p.a, p.opts);
    out.q = std::move(res.q);
    out.r = std::move(res.r);
  }
  return out;
}

bool same_output(const LocalOut& x, const LocalOut& y) {
  return same_bits(x.x, y.x) && same_bits(x.q, y.q) && same_bits(x.r, y.r);
}

// Once per run: A = QR and Q^T Q = I to 1e-12 and, for the solve, the normal
// equations A^T (b - A x) = 0 relative to ||A|| ||b - A x||.
void check_numerics(Run& run, const LocalProblem& p, const LocalOut& first) {
  Matrix q = first.q, r = first.r;
  if (p.solve) {
    QRResult res = qr(p.a, p.opts);
    q = std::move(res.q);
    r = std::move(res.r);
  }
  const double resid = factorization_residual(p.a.view(), q.view(), r.view());
  const double orth = orthogonality_error(q.view());
  run.metrics.add("check.residual", resid, "ratio");
  run.metrics.add("check.orthogonality", orth, "ratio");
  run.check(resid <= 1e-12, "||A - QR|| / ||A|| = " + std::to_string(resid));
  run.check(orth <= 1e-12, "||Q^T Q - I|| = " + std::to_string(orth));
  if (!p.solve) return;
  Matrix res = p.rhs;
  gemm(Trans::No, Trans::No, -1.0, p.a.view(), first.x.view(), 1.0, res.view());
  Matrix atr(p.a.cols(), res.cols());
  gemm(Trans::Yes, Trans::No, 1.0, p.a.view(), res.view(), 0.0, atr.view());
  const double normal = frobenius_norm(atr.view()) /
                        (frobenius_norm(p.a.view()) * frobenius_norm(res.view()));
  run.metrics.add("check.normal_equations", normal, "ratio");
  run.check(normal <= 1e-12, "normal-equation residual " + std::to_string(normal));
}

// The parts of one traced operation, in seconds.
struct Decomposed {
  LocalOut out;
  double list = 0, tile_probe = 0, factor = 0, q = 0, tail = 0, total = 0;
};

// One traced operation, decomposed into the public calls qr() / qr_solve()
// make, each under its own span. The factorization runs with an executor
// trace attached so the per-layer accounting sees its tasks.
Decomposed decomposed_op(Run& run, const LocalProblem& p, long long op,
                         const TaskGraph& graph, FactorAccount& acc,
                         obs::TraceRecorder& trace) {
  Spans& sp = run.spans;
  Decomposed d;
  const int top = sp.open(p.solve ? "qr_solve" : "qr", -1, op);
  const double t0 = now();
  const int s_list = sp.open("trees.hqr_elimination_list", top, op);
  const EliminationList list = hqr_elimination_list(p.mt, p.nt, p.opts.tree);
  sp.close(s_list);
  const double t1 = now();
  // qr() / qr_solve() tile the input once just to learn the tile grid and
  // keep that copy alive to the end, which changes how later allocations
  // reuse memory; so does the decomposition.
  const int s_probe = sp.open("linalg.tile_probe", top, op);
  const TiledMatrix probe = TiledMatrix::from_matrix(p.a, p.opts.b);
  sp.close(s_probe);
  const double t2 = now();

  ExecutorOptions exec;
  exec.threads = p.opts.threads;
  exec.ib = p.opts.ib;
  ExecutorOptions observed = exec;
  trace = obs::TraceRecorder();
  observed.trace = &trace;
  RunStats st;
  const int s_factor = sp.open("core.qr_factorize_parallel", top, op);
  const QRFactors f = qr_factorize_parallel(p.a, p.opts.b, list, observed, &st);
  sp.close(s_factor);
  const double t3 = now();

  if (p.solve) {
    const int s_q = sp.open("core.apply_q_parallel", top, op);
    TiledMatrix c = TiledMatrix::from_matrix(p.rhs, p.opts.b);
    apply_q_parallel(f, Trans::Yes, c, exec);
    const Matrix qtb = c.to_matrix();
    d.out.x = materialize(qtb.block(0, 0, p.a.cols(), p.rhs.cols()));
    sp.close(s_q);
    d.q = now() - t3;
    const int s_tail = sp.open("core.extract_r+trsm_left", top, op);
    const Matrix r = extract_r(f);
    trsm_left(UpLo::Upper, Trans::No, Diag::NonUnit,
              ConstMatrixView(r.block(0, 0, p.a.cols(), p.a.cols())),
              d.out.x.view());
    sp.close(s_tail);
  } else {
    const int s_q = sp.open("core.build_q_parallel", top, op);
    const Matrix qp = build_q_parallel(f, exec);
    d.out.q = materialize(qp.block(0, 0, p.a.rows(), std::min(p.a.rows(), p.a.cols())));
    sp.close(s_q);
    d.q = now() - t3;
    const int s_tail = sp.open("core.extract_r", top, op);
    d.out.r = extract_r(f);
    sp.close(s_tail);
  }
  const double t4 = now();
  sp.close(top);
  d.list = t1 - t0;
  d.tile_probe = t2 - t1;
  d.factor = t3 - t2;
  d.tail = t4 - t3 - d.q;
  d.total = t4 - t0;
  acc.add(executor_call(st, d.factor, obs::analyze_trace(trace, &graph)));
  return d;
}

// Useful flops of an m x n QR factorization, the paper's 2mn^2 - 2n^3/3.
double qr_flops(double m, double n) { return 2.0 * m * n * n - 2.0 * n * n * n / 3.0; }

// Heap held by the QRFactors (tiles and T) of one factorization, in MB.
double factors_mb(const Matrix& a, int b, const EliminationList& list, int ib) {
  const double h0 = heap_bytes();
  const QRFactors f = qr_factorize_sequential(a, b, list, ib);
  return (heap_bytes() - h0) / 1e6;
}

// 1-thread over 4-thread qr_factorize_parallel medians.
double speedup_4t(const Matrix& a, int b, int ib, const EliminationList& list,
                  bool smoke) {
  const auto median_factor = [&](int threads, int reps) {
    ExecutorOptions opts;
    opts.threads = threads;
    opts.ib = ib;
    Samples s;
    for (int r = 0; r < reps; ++r) {
      const double t0 = now();
      const QRFactors f = qr_factorize_parallel(a, b, list, opts);
      s.add(now() - t0);
    }
    return s.median();
  };
  return median_factor(1, smoke ? 1 : 3) / median_factor(4, smoke ? 1 : 5);
}

}  // namespace

// ---- configuration ----

Config smoke_config() {
  Config c;
  c.smoke = true;
  c.warmup = 1;
  c.min_ops = 3;
  c.min_beyond = 0;
  c.setups = 1;
  c.probe_s = 0.0;
  c.probe_reps = 2;
  c.rate_rounds = 1;
  c.b = 50;
  c.ib = 16;
  c.threads = 2;
  c.ts_m = 800;
  c.ts_n = 100;
  c.sq_n = 200;
  c.dist_n = 200;
  c.dist_traced_jobs = 2;
  c.small_m = 48, c.small_n = 24, c.small_b = 8;
  c.batch_problems = 8;
  c.pool_threads = 2;
  c.capacity_rps = 400.0;
  c.tail_samples = 40;
  return c;
}

void Run::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::cerr << "hqr_bench: check failed: " << what << "\n";
}

// ---- shared helpers ----

bool same_bits(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.storage().empty() ||
          std::memcmp(x.storage().data(), y.storage().data(),
                      x.storage().size() * sizeof(double)) == 0);
}

void report_dag(const TaskGraph& graph, MetricList& out) {
  out.add("dag.tasks", graph.size(), "count");
  out.add("dag.edges", static_cast<double>(graph.num_edges()), "count");
  out.add("dag.cp_tasks", graph.unit_critical_path(), "count");
}

void report_core(Run& run, const Matrix& a, int b, int ib,
                 const EliminationList& list, double factor_s, double post_s) {
  MetricList& m = run.metrics;
  m.add("core.factor_s", factor_s, "s");
  m.add("core.factor_gflops", qr_flops(a.rows(), a.cols()) / factor_s / 1e9, "GFlop/s");
  m.add("core.post_factor_s", post_s, "s");
  m.add("core.factors_mb", factors_mb(a, b, list, ib), "MB");
  m.add("runtime.speedup_4t", speedup_4t(a, b, ib, list, run.cfg.smoke), "ratio");
}

// ---- kernel rates and factorization accounting ----

double KernelRates::best_call(KernelType k, int b, int ib, std::uint64_t seed,
                              double seconds, int reps) const {
  Rng rng(seed);
  const Matrix a1_0 = random_gaussian(b, b, rng);
  const Matrix a2_0 = random_gaussian(b, b, rng);
  Matrix a1 = a1_0, a2 = a2_0, t(b, b);
  Matrix c1 = random_gaussian(b, b, rng), c2 = random_gaussian(b, b, rng);
  TileWorkspace ws(b);
  const auto reset = [&] {
    a1 = a1_0;
    a2 = a2_0;
  };
  const auto factor = [&](KernelType f) {
    if (f == KernelType::GEQRT)
      ib ? geqrt_ib(a1.view(), t.view(), ib, ws) : geqrt(a1.view(), t.view(), ws);
    else if (f == KernelType::TSQRT)
      ib ? tsqrt_ib(a1.view(), a2.view(), t.view(), ib, ws)
         : tsqrt(a1.view(), a2.view(), t.view(), ws);
    else
      ib ? ttqrt_ib(a1.view(), a2.view(), t.view(), ib, ws)
         : ttqrt(a1.view(), a2.view(), t.view(), ws);
  };
  if (is_factor_kernel(k))
    return probe_samples([&] { factor(k); }, seconds, reps, reset).min();
  // Update kernels apply a real reflector, factored once up front.
  const KernelType f = k == KernelType::UNMQR   ? KernelType::GEQRT
                       : k == KernelType::TSMQR ? KernelType::TSQRT
                                                : KernelType::TTQRT;
  reset();
  factor(f);
  return probe_samples([&] {
    switch (k) {
      case KernelType::UNMQR:
        ib ? unmqr_ib(a1.view(), t.view(), ib, Trans::Yes, c1.view(), ws)
           : unmqr(a1.view(), t.view(), Trans::Yes, c1.view(), ws);
        break;
      case KernelType::TSMQR:
        ib ? tsmqr_ib(c1.view(), c2.view(), a2.view(), t.view(), ib, Trans::Yes, ws)
           : tsmqr(c1.view(), c2.view(), a2.view(), t.view(), Trans::Yes, ws);
        break;
      default:
        ib ? ttmqr_ib(c1.view(), c2.view(), a2.view(), t.view(), ib, Trans::Yes, ws)
           : ttmqr(c1.view(), c2.view(), a2.view(), t.view(), Trans::Yes, ws);
        break;
    }
  }, seconds, reps).min();
}

void KernelRates::ensure(int b, int ib, std::uint64_t seed, const Config& c) {
  if (rates_.count({0, b, ib}) != 0) return;
  // Rounds over all six kernels spread each kernel's calls over the whole
  // probe, so its best call falls outside the host's slow moments.
  KernelSeconds best;
  best.fill(kFailed);
  const int reps = std::max(1, c.probe_reps / c.rate_rounds);
  for (int round = 0; round < c.rate_rounds; ++round)
    for (int k = 0; k < kKernelTypeCount; ++k)
      best[k] = std::min(best[k], best_call(static_cast<KernelType>(k), b, ib, seed,
                                            c.probe_s, reps));
  for (int k = 0; k < kKernelTypeCount; ++k)
    rates_[{k, b, ib}] = kernel_flops(static_cast<KernelType>(k), b) / best[k] / 1e9;
}

double KernelRates::gflops(KernelType k, int b, int ib) const {
  const auto it = rates_.find({static_cast<int>(k), b, ib});
  HQR_CHECK(it != rates_.end(), "no isolated rate for " << kernel_name(k)
                                                       << " b=" << b << " ib=" << ib);
  return it->second;
}

CallStats executor_call(const RunStats& st, double wall,
                        const obs::AnalysisReport& report) {
  CallStats c;
  c.wall = wall;
  c.workers = st.threads;
  c.engine = st.threads * st.seconds;
  for (std::size_t t = 0; t < st.busy_seconds_per_thread.size(); ++t) {
    c.busy += st.busy_seconds_per_thread[t];
    c.idle += st.idle_seconds_per_thread[t];
    c.terminal += st.terminal_wait_seconds_per_thread[t];
  }
  c.tasks = st.tasks_by_kernel;
  c.seconds = st.seconds_by_kernel;
  c.utilization = report.utilization;
  c.cp_fraction = report.critical_path_fraction;
  c.reuse_hit_rate = st.reuse_hit_rate();
  c.steals = st.steals;
  c.steal_fails = st.steal_fails;
  return c;
}

void FactorAccount::add(const CallStats& c) {
  double bound = 0.0;
  for (int k = 0; k < kKernelTypeCount; ++k) {
    tasks_[k] += c.tasks[k];
    seconds_[k] += c.seconds[k];
    if (c.tasks[k] == 0) continue;
    const auto type = static_cast<KernelType>(k);
    bound += static_cast<double>(c.tasks[k]) * kernel_flops(type, b_) /
             (rates_.gflops(type, b_, ib_) * 1e9);
  }
  threads_wall_ += c.workers * c.wall;
  kernel_bound_ += bound;
  busy_ += c.busy;
  idle_ += c.idle;
  terminal_ += c.terminal;
  engine_ += c.engine;
  factor_s_.add(c.wall);
  utilization_.add(c.utilization);
  cp_fraction_.add(c.cp_fraction);
  reuse_hit_rate_.add(c.reuse_hit_rate);
  steals_.add(static_cast<double>(c.steals));
  steal_fails_.add(static_cast<double>(c.steal_fails));
}

void FactorAccount::report(MetricList& out) const {
  out.add("runtime.utilization", utilization_.median(), "ratio");
  out.add("runtime.cp_fraction", cp_fraction_.median(), "ratio");
  out.add("runtime.steals", steals_.median(), "count");
  out.add("runtime.steal_fails", steal_fails_.median(), "count");
  out.add("runtime.reuse_hit_rate", reuse_hit_rate_.median(), "ratio");

  // In-DAG rates: flops at the paper's weights over measured kernel time.
  double family_flops[2] = {0, 0}, family_s[2] = {0, 0};
  for (int k = 0; k < kKernelTypeCount; ++k) {
    if (tasks_[k] == 0) continue;
    const auto type = static_cast<KernelType>(k);
    const double flops = static_cast<double>(tasks_[k]) * kernel_flops(type, b_);
    out.add("kernels." + lower(kernel_name(type)) + ".indag_gflops",
            flops / seconds_[k] / 1e9, "GFlop/s");
    const int fam = is_factor_kernel(type) ? 0 : 1;
    family_flops[fam] += flops;
    family_s[fam] += seconds_[k];
  }
  out.add("kernels.panel.indag_gflops", family_flops[0] / family_s[0] / 1e9, "GFlop/s");
  out.add("kernels.update.indag_gflops", family_flops[1] / family_s[1] / 1e9, "GFlop/s");
  out.add("kernels.indag_slowdown", busy_ / kernel_bound_ - 1.0, "ratio");

  const double n = std::max<std::size_t>(1, factor_s_.size());
  const double slowdown = busy_ - kernel_bound_;
  const double sched = engine_ - busy_ - idle_ - terminal_;
  const double outside = threads_wall_ - engine_;
  out.add("budget.threads_wall_s", threads_wall_ / n, "s");
  out.add("budget.kernel_bound_s", kernel_bound_ / n, "s");
  out.add("budget.indag_slowdown_s", slowdown / n, "s");
  out.add("budget.sched_overhead_s", sched / n, "s");
  out.add("budget.dep_idle_s", idle_ / n, "s");
  out.add("budget.terminal_wait_s", terminal_ / n, "s");
  out.add("budget.outside_exec_s", outside / n, "s");
  // The parts sum to threads x wall by construction; a negative part means
  // one of the measurements it is the difference of is wrong.
  const int negative = (slowdown < 0) + (sched < 0) + (outside < 0);
  out.add("budget.negative_parts", negative, "count");
  if (negative > 0)
    std::cerr << "hqr_bench: budget does not decompose: indag_slowdown_s "
              << slowdown / n << ", sched_overhead_s " << sched / n
              << ", outside_exec_s " << outside / n << "\n";
}

// ---- probes every traced run takes ----

void probe_kernels(Run& run, KernelRates& rates) {
  const Config& c = run.cfg;
  for (const int b : {200, 32}) {
    Rng rng(run.seed);
    const Matrix x = random_gaussian(b, b, rng), y = random_gaussian(b, b, rng);
    Matrix z(b, b);
    GemmWorkspace ws;
    ws.reserve(b, b, b);
    double s = kFailed;
    for (int round = 0; round < c.rate_rounds; ++round)
      s = std::min(s, probe_samples([&] {
                        gemm(Trans::No, Trans::No, 1.0, x.view(), y.view(), 0.0,
                             z.view(), ws);
                      }, c.probe_s, c.probe_reps).min());
    run.metrics.add("linalg.gemm_gflops.b" + std::to_string(b),
                    2.0 * b * b * b / s / 1e9, "GFlop/s");
  }
  // Production inner-blocked kernels at the paper's tile size and the plain
  // full-T kernels at serve-mix's small-request tile size.
  for (const auto& [b, ib] : {std::pair{200, 32}, std::pair{32, 0}}) {
    rates.ensure(b, ib, run.seed, c);
    for (int k = 0; k < kKernelTypeCount; ++k) {
      const auto type = static_cast<KernelType>(k);
      run.metrics.add("kernels." + lower(kernel_name(type)) + ".b" +
                          std::to_string(b) + ".gflops",
                      rates.gflops(type, b, ib), "GFlop/s");
    }
  }
}

void factor_layer_metrics(Run& run, const Matrix& a, int b, int ib,
                          int threads, const EliminationList& list,
                          const KernelRates& rates,
                          const std::function<void(const QRFactors&)>& post) {
  const int mt = (a.rows() + b - 1) / b, nt = (a.cols() + b - 1) / b;
  const TaskGraph graph(expand_to_kernels(list, mt, nt), mt, nt);
  report_dag(graph, run.metrics);
  ExecutorOptions opts;
  opts.threads = threads;
  opts.ib = ib;
  obs::TraceRecorder trace;
  opts.trace = &trace;
  FactorAccount acc(b, ib, rates);
  Samples post_s;
  long long op = 0;
  OpCount calls;
  rep_loop(run.cfg.warmup, run.seconds / 4, run.cfg.smoke ? 2 : 30, [&] {
    trace = obs::TraceRecorder();
    RunStats st;
    const int s = run.spans.open("core.qr_factorize_parallel", -1, op++);
    const double t0 = now();
    const QRFactors f = qr_factorize_parallel(a, b, list, opts, &st);
    const double wall = now() - t0;
    run.spans.close(s);
    acc.add(executor_call(st, wall, obs::analyze_trace(trace, &graph)));
    const double t1 = now();
    post(f);
    post_s.add(now() - t1);
  }, [] { return true; }, calls);
  trace.save_chrome_json(run.trace_dir + "/executor.json");

  acc.report(run.metrics);
  report_core(run, a, b, ib, list, acc.factor_s().median(), post_s.median());
}

// ---- the ts-lsq / square-qr workloads ----

SetupProbe local_setup(const Config& c, std::uint64_t seed, bool solve) {
  const LocalProblem p = make_problem(c, seed, solve);
  const LocalOut out = one_call(p);
  SetupProbe probe;
  probe.done = now();
  return probe;
}

void local_e2e(Run& run, bool solve) {
  const Config& c = run.cfg;
  const LocalProblem p = make_problem(c, run.seed, solve);
  // Every operation must reproduce the first one's output bit for bit.
  const LocalOut first = one_call(p);
  run.ops.record(true);

  LocalOut out;
  const Samples lat = rep_loop(
      c.warmup, run.seconds, c.min_ops, [&] { out = one_call(p); },
      [&] { return same_output(out, first); }, run.ops);

  run.metrics.add("latency_s.p50", lat.median(), "s");
  run.metrics.add("latency_s.p90", lat.percentile(0.9, c.min_beyond), "s");
  run.metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  // After the high-water mark is read, so the checker's extra factorization
  // and residual temporaries do not count as the operation's memory.
  check_numerics(run, p, first);
  run.metrics.add("ops", static_cast<double>(lat.size()), "count");
  run.metrics.add("latency_s.iqr", lat.iqr(), "s");
  run.metrics.add("gflops.p50", qr_flops(p.a.rows(), p.a.cols()) / lat.median() / 1e9,
                  "GFlop/s");
}

void local_layers(Run& run, bool solve, KernelRates& rates) {
  const Config& c = run.cfg;
  const LocalProblem p = make_problem(c, run.seed, solve);
  const LocalOut ref = one_call(p);
  run.ops.record(true);
  rates.ensure(c.b, c.ib, run.seed, c);

  const EliminationList list = hqr_elimination_list(p.mt, p.nt, p.opts.tree);
  const TaskGraph graph(expand_to_kernels(list, p.mt, p.nt), p.mt, p.nt);
  report_dag(graph, run.metrics);

  // Untraced one-call operations, the baseline of the decomposition and of
  // the tracing overhead, alternate with traced decomposed ones so host
  // drift hits both sides alike. Computing `ref` warmed the process up.
  FactorAccount acc(c.b, c.ib, rates);
  obs::TraceRecorder trace;
  Samples one, list_s, probe_s, q_s, tail_s, post_s, total_s;
  long long op = 0;
  LocalOut out;
  rep_loop(0, 2 * run.seconds / 3, c.smoke ? 4 : 60, [&] {
    if (op % 2 == 0) {
      const double t0 = now();
      out = one_call(p);
      one.add(now() - t0);
    } else {
      Decomposed d = decomposed_op(run, p, op, graph, acc, trace);
      list_s.add(d.list);
      probe_s.add(d.tile_probe);
      q_s.add(d.q);
      tail_s.add(d.tail);
      post_s.add(d.q + d.tail);
      total_s.add(d.total);
      out = std::move(d.out);
    }
    ++op;
  }, [&] { return same_output(out, ref); }, run.ops);
  trace.save_chrome_json(run.trace_dir + "/executor.json");

  MetricList& m = run.metrics;
  const double factor = acc.factor_s().median();
  m.add("trees.list_s", list_s.median(), "s");
  report_core(run, p.a, c.b, c.ib, list, factor, post_s.median());
  m.add(solve ? "core.apply_qt_s" : "core.build_q_s", q_s.median(), "s");
  m.add(solve ? "core.trsm_s" : "core.extract_r_s", tail_s.median(), "s");
  m.add("core.tile_probe_s", probe_s.median(), "s");
  // The decomposed parts against the one-call median (should be ~1).
  m.add("core.decomp_frac",
        (list_s.median() + probe_s.median() + factor + post_s.median()) / one.median(),
        "ratio");
  m.add("trace.overhead_frac", total_s.median() / one.median() - 1.0, "ratio");
  acc.report(m);
}

}  // namespace hqr::bench
