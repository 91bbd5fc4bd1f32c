// dist-2x2: one complete four-rank job per operation — fork, socket mesh,
// clock sync, dist_qr_factorize, gather onto rank 0, Bye — and the
// net/distrun layer pass of traced runs.
#include <fcntl.h>
#include <limits.h>
#include <unistd.h>

#include <cstring>
#include <type_traits>

#include "bench.hpp"
#include "common/rng.hpp"
#include "distrun/dist_exec.hpp"
#include "linalg/random_matrix.hpp"
#include "net/launcher.hpp"

namespace hqr::bench {

namespace {

// What each rank reports after its job, through a pipe the parent created
// before forking. One write of a plain struct smaller than PIPE_BUF is
// atomic, so concurrent ranks never interleave their records.
struct RankRecord {
  std::int32_t rank = -1;
  std::int32_t ok = 0;  // rank 0: factors bit-identical, Data messages == plan
  double t_enter = 0, t_factor_start = 0, t_factor_end = 0, t_exit = 0;
  double exec = 0, busy = 0, idle = 0, terminal = 0, max_recv_wait = 0;
  long long steals = 0, steal_fails = 0, reuse_hits = 0, tasks = 0;
  long long data_messages = 0, data_bytes = 0;  // sent
  KernelCounts tasks_by_kernel{};
  KernelSeconds seconds_by_kernel{};
};
static_assert(sizeof(RankRecord) <= PIPE_BUF);
static_assert(std::is_trivially_copyable_v<RankRecord>);

class RecordPipe {
 public:
  RecordPipe() {
    HQR_CHECK(::pipe(fd_) == 0, "pipe: " << std::strerror(errno));
    HQR_CHECK(::fcntl(fd_[0], F_SETFL, O_NONBLOCK) == 0, "fcntl");
  }
  ~RecordPipe() {
    ::close(fd_[0]);
    ::close(fd_[1]);
  }
  RecordPipe(const RecordPipe&) = delete;
  RecordPipe& operator=(const RecordPipe&) = delete;

  // Rank side.
  bool send(const RankRecord& r) const {
    return ::write(fd_[1], &r, sizeof(r)) == static_cast<ssize_t>(sizeof(r));
  }
  // Parent side, after the ranks exited: everything buffered.
  std::vector<RankRecord> drain() const {
    std::vector<RankRecord> out;
    RankRecord r;
    while (::read(fd_[0], &r, sizeof(r)) == static_cast<ssize_t>(sizeof(r)))
      out.push_back(r);
    return out;
  }

 private:
  int fd_[2] = {-1, -1};
};

struct DistProblem {
  Matrix a;
  EliminationList list;
  int b = 0, ib = 0, mt = 0, nt = 0;
};

DistProblem make_problem(const Config& c, std::uint64_t seed) {
  DistProblem p;
  Rng rng(seed);
  p.a = random_gaussian(c.dist_n, c.dist_n, rng);
  p.b = c.b;
  p.ib = c.ib;
  p.mt = p.nt = (c.dist_n + c.b - 1) / c.b;
  p.list = hqr_elimination_list(p.mt, p.nt, c.dist_tree);
  return p;
}

bool same_view(ConstMatrixView x, ConstMatrixView y) {
  for (int j = 0; j < x.cols; ++j)
    if (std::memcmp(x.data + static_cast<std::size_t>(j) * x.ld,
                    y.data + static_cast<std::size_t>(j) * y.ld,
                    sizeof(double) * static_cast<std::size_t>(x.rows)) != 0)
      return false;
  return true;
}

// Tiles and T factors, bit for bit.
bool same_factors(const QRFactors& x, const QRFactors& y) {
  for (int i = 0; i < x.mt(); ++i)
    for (int j = 0; j < x.nt(); ++j)
      if (!same_view(x.a().tile(i, j), y.a().tile(i, j))) return false;
  for (const KernelOp& op : x.kernels()) {
    if (op.type == KernelType::GEQRT) {
      if (!same_view(x.t_geqrt(op.row, op.k), y.t_geqrt(op.row, op.k))) return false;
    } else if (is_factor_kernel(op.type)) {
      if (!same_view(x.t_pencil(op.row, op.k), y.t_pencil(op.row, op.k))) return false;
    }
  }
  return true;
}

struct Job {
  double t_call = 0, t_return = 0;
  std::vector<RankRecord> ranks;  // by rank
  bool ok = false;
  double wall() const { return t_return - t_call; }
  const RankRecord& r0() const { return ranks[0]; }
};

// One complete job. Rank 0 compares the gathered factors with `ref`, the
// sequential factorization computed before the fork, and the measured Data
// messages with the CommPlan's count; it exits nonzero when either differs.
Job run_job(const Config& c, const DistProblem& p, const QRFactors& ref,
            const RecordPipe& pipe, const std::string& trace_dir) {
  const auto rank_main = [&](net::Comm& comm) -> int {
    RankRecord r;
    r.rank = comm.rank();
    r.t_enter = now();
    distrun::DistOptions opts;
    opts.threads = 1;
    opts.ib = p.ib;
    opts.broadcast = BroadcastKind::Binomial;
    obs::TraceRecorder trace;
    if (!trace_dir.empty()) opts.trace = &trace;
    distrun::DistStats st;
    r.t_factor_start = now();
    const QRFactors f = distrun::dist_qr_factorize(
        comm, p.a, p.b, p.list, Distribution::block_cyclic_2d(2, 2), opts, &st);
    r.t_factor_end = now();
    r.exec = st.run.seconds;
    for (std::size_t t = 0; t < st.run.busy_seconds_per_thread.size(); ++t) {
      r.busy += st.run.busy_seconds_per_thread[t];
      r.idle += st.run.idle_seconds_per_thread[t];
      r.terminal += st.run.terminal_wait_seconds_per_thread[t];
    }
    r.steals = st.run.steals;
    r.steal_fails = st.run.steal_fails;
    r.reuse_hits = st.run.reuse_hits;
    r.tasks = st.run.total_tasks;
    r.tasks_by_kernel = st.run.tasks_by_kernel;
    r.seconds_by_kernel = st.run.seconds_by_kernel;
    r.data_messages = st.comm.data_messages_sent;
    r.data_bytes = st.comm.data_bytes_sent;
    if (comm.rank() == 0) {
      long long sent = 0;
      for (const distrun::DistRankStats& s : st.ranks) sent += s.data_messages_sent;
      r.ok = same_factors(f, ref) && sent == st.plan_messages;
      r.max_recv_wait = 0.0;
      for (const distrun::DistRankStats& s : st.ranks)
        r.max_recv_wait = std::max(r.max_recv_wait, s.max_recv_wait_seconds);
    } else {
      r.ok = 1;
    }
    if (!trace_dir.empty())
      trace.save_csv(trace_dir + "/dist.rank" + std::to_string(comm.rank()) + ".csv");
    r.t_exit = now();
    return pipe.send(r) && r.ok ? 0 : 1;
  };
  net::LaunchOptions lopts;
  lopts.timeout_seconds = 120.0;
  Job job;
  job.t_call = now();
  const int rc = net::run_ranks(c.ranks, rank_main, lopts);
  job.t_return = now();
  std::vector<RankRecord> got = pipe.drain();
  job.ranks.assign(static_cast<std::size_t>(c.ranks), RankRecord{});
  int seen = 0;
  for (const RankRecord& r : got)
    if (r.rank >= 0 && r.rank < c.ranks) {
      job.ranks[static_cast<std::size_t>(r.rank)] = r;
      ++seen;
    }
  job.ok = rc == 0 && seen == c.ranks && job.r0().ok;
  if (!job.ok)
    std::fprintf(stderr,
                 "hqr_bench: dist job failed: exit code %d, %d of %d rank "
                 "reports, rank 0 check %s\n",
                 rc, seen, c.ranks, job.r0().ok ? "passed" : "failed");
  return job;
}

// Spans of one job: the parent's run_ranks call and rank 0's phases, all on
// the shared monotonic clock.
void job_spans(Spans& sp, const Job& j, long long op) {
  const RankRecord& r = j.r0();
  const int top = sp.add("net.run_ranks", j.t_call, j.t_return, -1, op);
  sp.add("net.launch", j.t_call, r.t_enter, top, op);
  sp.add("distrun.dist_qr_factorize", r.t_factor_start, r.t_factor_end, top, op);
  sp.add("distrun.check", r.t_factor_end, r.t_exit, top, op);
  sp.add("net.teardown", r.t_exit, j.t_return, top, op);
}

CallStats job_call(const Job& j, const obs::AnalysisReport& report) {
  CallStats c;
  c.wall = j.wall();
  c.workers = static_cast<int>(j.ranks.size());  // one worker per rank
  long long reuse = 0, tasks = 0;
  for (const RankRecord& r : j.ranks) {
    c.engine += r.exec;
    c.busy += r.busy;
    c.idle += r.idle;
    c.terminal += r.terminal;
    for (int k = 0; k < kKernelTypeCount; ++k) {
      c.tasks[k] += r.tasks_by_kernel[k];
      c.seconds[k] += r.seconds_by_kernel[k];
    }
    c.steals += r.steals;
    c.steal_fails += r.steal_fails;
    reuse += r.reuse_hits;
    tasks += r.tasks;
  }
  c.utilization = report.utilization;
  c.cp_fraction = report.critical_path_fraction;
  c.reuse_hit_rate = tasks > 0 ? static_cast<double>(reuse) / tasks : 0.0;
  return c;
}

}  // namespace

SetupProbe dist_setup(const Config& c, std::uint64_t seed) {
  // The reference the ranks check against is not part of set-up.
  const double t0 = now();
  const DistProblem r = make_problem(c, seed);
  const QRFactors ref = qr_factorize_sequential(r.a, r.b, r.list, r.ib);
  SetupProbe probe;
  probe.excluded = now() - t0;
  const DistProblem p = make_problem(c, seed);
  const RecordPipe pipe;
  probe.ok = run_job(c, p, ref, pipe, "").ok;
  probe.done = now();
  return probe;
}

void dist_e2e(Run& run) {
  const Config& c = run.cfg;
  const DistProblem p = make_problem(c, run.seed);
  const QRFactors ref = qr_factorize_sequential(p.a, p.b, p.list, p.ib);
  const RecordPipe pipe;
  Job job;
  const Samples lat = rep_loop(
      c.warmup, run.seconds, c.min_ops, [&] { job = run_job(c, p, ref, pipe, ""); },
      [&] { return job.ok; }, run.ops);

  run.metrics.add("latency_s.p50", lat.median(), "s");
  run.metrics.add("latency_s.p90", lat.percentile(0.9, c.min_beyond), "s");
  run.metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  run.metrics.add("ops", static_cast<double>(lat.size()), "count");
  run.metrics.add("latency_s.iqr", lat.iqr(), "s");
}

void dist_layers(Run& run, KernelRates& rates, bool owner) {
  const Config& c = run.cfg;
  const DistProblem p = make_problem(c, run.seed);
  const QRFactors ref = qr_factorize_sequential(p.a, p.b, p.list, p.ib);
  const TaskGraph graph(expand_to_kernels(p.list, p.mt, p.nt), p.mt, p.nt);
  const RecordPipe pipe;
  rates.ensure(p.b, p.ib, run.seed, c);

  // The owner's pass alternates untraced jobs, the baseline of the tracing
  // overhead, with traced ones, so host drift hits both sides alike.
  Job job;
  bool traced_job = true;
  FactorAccount acc(p.b, p.ib, rates);
  Samples untraced, traced, launch, factor, exec, teardown, post, messages, mb,
      recv_wait, idle;
  long long op = 0;
  // Merging and analyzing the rank traces happens after the timed job.
  const auto account = [&] {
    if (!job.ok) return false;
    if (!traced_job) {
      untraced.add(job.wall());
      return true;
    }
    traced.add(job.wall());
    std::vector<std::string> csvs;
    for (int r = 0; r < c.ranks; ++r)
      csvs.push_back(run.trace_dir + "/dist.rank" + std::to_string(r) + ".csv");
    const obs::TraceRecorder merged = obs::merge_rank_traces(csvs);
    acc.add(job_call(job, obs::analyze_trace(merged, &graph)));
    merged.save_chrome_json(run.trace_dir + "/dist.json");
    job_spans(run.spans, job, op++);
    const RankRecord& r0 = job.r0();
    launch.add(r0.t_enter - job.t_call);
    factor.add(r0.t_factor_end - r0.t_factor_start);
    exec.add(r0.exec);
    teardown.add(job.t_return - r0.t_exit);
    post.add(job.t_return - r0.t_factor_end);
    double msgs = 0, bytes = 0, idle_s = 0;
    for (const RankRecord& r : job.ranks) {
      msgs += static_cast<double>(r.data_messages);
      bytes += static_cast<double>(r.data_bytes);
      idle_s += r.idle;
    }
    messages.add(msgs);
    mb.add(bytes / 1e6);
    recv_wait.add(r0.max_recv_wait);
    idle.add(idle_s);
    return true;
  };
  rep_loop(0, owner ? 2 * run.seconds / 3 : 0.0,
           owner ? (c.smoke ? 4 : 60) : c.dist_traced_jobs, [&] {
             traced_job = !owner || !traced_job;
             job = run_job(c, p, ref, pipe, traced_job ? run.trace_dir : "");
           }, account, run.ops);

  MetricList& m = run.metrics;
  m.add("net.launch_s", launch.median(), "s");
  m.add("distrun.factor_s", factor.median(), "s");
  m.add("distrun.exec_s", exec.median(), "s");
  m.add("distrun.teardown_s", teardown.median(), "s");
  m.add("net.data_messages", messages.median(), "count");
  m.add("net.data_mb", mb.median(), "MB");
  m.add("net.max_recv_wait_s", recv_wait.median(), "s");
  m.add("distrun.idle_s", idle.median(), "s");
  if (!owner) return;

  report_dag(graph, m);
  m.add("trees.list_s", probe_seconds([&] {
          const EliminationList l = hqr_elimination_list(p.mt, p.nt, c.dist_tree);
        }, c.probe_s, c.probe_reps), "s");
  acc.report(m);
  report_core(run, p.a, p.b, p.ib, p.list, factor.median(), post.median());
  m.add("trace.overhead_frac", traced.median() / untraced.median() - 1.0, "ratio");
}

}  // namespace hqr::bench
