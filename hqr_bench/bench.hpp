// Declarations shared by the hqr_bench translation units: problem sizes, the
// per-run context, and the per-layer accounting (isolated kernel rates and
// the threads x wall budget of one factorization call).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>

#include "harness.hpp"
#include "kernels/weights.hpp"
#include "obs/analyzer.hpp"
#include "runtime/executor.hpp"
#include "trees/hqr_tree.hpp"

namespace hqr::bench {

// Every size the benchmark runs. Fixed per workload (the program receives
// only inputs generated from --seed); smoke_config() shrinks them so the
// ctest smoke finishes in seconds.
struct Config {
  bool smoke = false;
  int warmup = 3;    // untimed operations before the rep loop
  int min_ops = 100;  // p90 needs >= 10 samples beyond it
  int min_beyond = 10;
  int setups = 7;  // cold set-ups per run, each a fresh process; setup_s is their median
  double probe_s = 0.05;  // each isolated probe: at least this long
  int probe_reps = 20;    // and this many calls
  // Isolated GEMM and kernel rates are the best call over this many rounds,
  // each probing every kernel for probe_s seconds in turn, so a slow moment
  // of the host cannot lower a rate that the budget uses as a bound.
  int rate_rounds = 5;

  // Tile parameters of ts-lsq, square-qr and dist-2x2.
  int b = 200;
  int ib = 32;
  int threads = 4;

  // ts-lsq: least squares on a tall-skinny matrix, paper §V-C tree.
  int ts_m = 6400;
  int ts_n = 400;
  int ts_nrhs = 4;
  HqrConfig ts_tree{4, 4, TreeKind::Fibonacci, TreeKind::Fibonacci, true};

  // square-qr: Q and R of a square matrix, paper §V-C square tree.
  int sq_n = 1200;
  HqrConfig sq_tree{4, 1, TreeKind::Fibonacci, TreeKind::Flat, true};

  // dist-2x2: four forked ranks, 2x2 block-cyclic, one worker each.
  int dist_n = 1200;
  int ranks = 4;
  HqrConfig dist_tree{2, 1, TreeKind::Fibonacci, TreeKind::Flat, true};
  int dist_traced_jobs = 5;  // jobs in the net/distrun layer pass

  // serve-mix: two request classes with the client defaults (ib = 0,
  // FlatTs), both the defaults of bench/bench_serve.cpp: its latency
  // experiment's SubmitQR of a 256x128 matrix at b=32 and its batch-fusion
  // experiment's SubmitBatch of 1000 problems of about 24x16 at b=8. No
  // recorded traffic exists to take their shares from: one request in
  // `batch_every` being a batch is an assumption (README.md, "Workloads").
  int small_m = 256, small_n = 128, small_b = 32;
  int batch_problems = 1000, batch_m = 24, batch_n = 16, batch_b = 8;
  int batch_every = 5;
  int pool_threads = 3;
  int connections = 4;  // one tenant per connection
  // Closed-loop saturation rate of the mix in requests/s, measured once with
  // `hqr_bench --calibrate` (nine calibrations over seeds 1-3, 139-175
  // req/s, median 164, 8 requests in flight) on the commit that introduced
  // the benchmark, on a 4-core Xeon host, and frozen: the offered load must
  // not follow the code under test.
  double capacity_rps = 164.0;
  // Offered loads, fractions of capacity_rps, well below where the server's
  // backlog runs away (README.md, "Traced runs"), which a busy host moves
  // down to 0.5-0.6.
  double light_load = 0.35;
  double heavy_load = 0.5;
  int tail_samples = 1100;  // requests a phase needs for its p99
  int max_inflight = 256;   // beyond this a phase stops, invalid
};

Config smoke_config();

// Isolated tile-kernel rates in GFlop/s (paper flop convention, weight *
// b^3 / 3), keyed by (kernel, b, ib); ib = 0 is the plain full-T kernel.
class KernelRates {
 public:
  // Measures all six kernels at (b, ib) unless already measured: each rate
  // is the best call over Config::rate_rounds rounds.
  void ensure(int b, int ib, std::uint64_t seed, const Config& c);
  double gflops(KernelType k, int b, int ib) const;

 private:
  // Seconds of the fastest call of kernel k in one round.
  double best_call(KernelType k, int b, int ib, std::uint64_t seed, double seconds,
                   int reps) const;
  std::map<std::tuple<int, int, int>, double> rates_;
};

using KernelCounts = std::array<long long, kKernelTypeCount>;
using KernelSeconds = std::array<double, kKernelTypeCount>;

// One observed factorization call, summed over its workers (threads of one
// process, or the single workers of all ranks).
struct CallStats {
  double wall = 0.0;      // the call, end to end
  int workers = 0;
  double engine = 0.0;    // workers x executor wall (RunStats::seconds)
  double busy = 0.0;      // measured kernel time
  double idle = 0.0;      // waiting for a ready task
  double terminal = 0.0;  // the final acquire that observed completion
  KernelCounts tasks{};
  KernelSeconds seconds{};
  double utilization = 0.0;  // obs::analyze_trace
  double cp_fraction = 0.0;
  double reuse_hit_rate = 0.0;
  long long steals = 0;
  long long steal_fails = 0;
};

CallStats executor_call(const RunStats& st, double wall,
                        const obs::AnalysisReport& report);

// Per-layer accounting of observed factorization calls: the threads x wall
// budget (ROADMAP 1(b)), the scheduler counters and the in-DAG kernel rates.
// Budget parts are means over calls. sched_overhead is the workers'
// executor time the executor did not book to kernels or waits, so the parts
// add up to threads x wall by construction and their sum checks nothing.
// What is checked instead is that no part is negative: the kernel bound
// must not exceed measured kernel time, nor the booked time the executor's.
class FactorAccount {
 public:
  FactorAccount(int b, int ib, const KernelRates& rates)
      : b_(b), ib_(ib), rates_(rates) {}
  void add(const CallStats& call);
  const Samples& factor_s() const { return factor_s_; }
  void report(MetricList& out) const;

 private:
  int b_, ib_;
  const KernelRates& rates_;
  Samples factor_s_, utilization_, cp_fraction_, reuse_hit_rate_, steals_,
      steal_fails_;
  KernelCounts tasks_{};
  KernelSeconds seconds_{};
  double threads_wall_ = 0, kernel_bound_ = 0, busy_ = 0, idle_ = 0,
         terminal_ = 0, engine_ = 0;
};

// The graph of a factorization, for the dag.* counts and the analyzer.
void report_dag(const TaskGraph& graph, MetricList& out);

// Bitwise equality of two matrices.
bool same_bits(const Matrix& x, const Matrix& y);

// One benchmark run: its inputs' seed, how long it measures, and what it
// reports.
struct Run {
  Config cfg;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  std::string trace_dir;  // empty: untraced run (end-to-end metrics)
  Spans spans;
  MetricList metrics;
  OpCount ops;
  bool correct = true;  // once-per-run output checks

  bool traced() const { return !trace_dir.empty(); }
  // Records a failed once-per-run check.
  void check(bool ok, const std::string& what);
};

// core.* for a factorization problem whose factor call took `factor_s` and
// whose operation spent `post_s` after it, plus runtime.speedup_4t.
void report_core(Run& run, const Matrix& a, int b, int ib,
                 const EliminationList& list, double factor_s, double post_s);

// One cold set-up, run in a fresh process (`hqr_bench --setup-probe`): the
// workload's inputs, state and first operation, which returned at `done`
// (monotonic clock; teardown comes after). `excluded` is the time it spent
// computing references for checking, which setup_s leaves out.
struct SetupProbe {
  bool ok = true;
  double done = 0.0;
  double excluded = 0.0;
};
SetupProbe local_setup(const Config& c, std::uint64_t seed, bool solve);
SetupProbe dist_setup(const Config& c, std::uint64_t seed);
SetupProbe serve_setup(const Config& c, std::uint64_t seed);

// Workloads. *_e2e is the untraced run that reports the end-to-end metrics.
// *_layers is the workload's part of a traced run; with `owner` false it is
// the short pass a traced run of another workload makes through that
// workload's layers (README.md, "Traced runs").
void local_e2e(Run& run, bool solve);  // ts-lsq (solve) / square-qr
void local_layers(Run& run, bool solve, KernelRates& rates);
void dist_e2e(Run& run);
void dist_layers(Run& run, KernelRates& rates, bool owner);
void serve_e2e(Run& run);
void serve_layers(Run& run, KernelRates& rates, bool owner);

// Isolated probes every traced run takes.
void probe_kernels(Run& run, KernelRates& rates);
void probe_serve_classes(Run& run);

// Closed-loop saturation rate of the serve-mix traffic (requests/s).
double serve_calibrate(const Config& cfg, std::uint64_t seed, double seconds);

// Per-layer metrics (runtime, budget, in-DAG kernels, core) of a
// factorization run through the executor in process: the traced pass of a
// workload whose own operation is not such a call. `post` is what the
// workload does with the factors afterwards (core.post_factor_s).
void factor_layer_metrics(Run& run, const Matrix& a, int b, int ib,
                          int threads, const EliminationList& list,
                          const KernelRates& rates,
                          const std::function<void(const QRFactors&)>& post);

}  // namespace hqr::bench
