// serve-mix: an in-process serve::Server on loopback driven by one
// single-threaded open-loop generator over raw protocol frames, plus the
// serve-layer probes of traced runs.
#include <poll.h>
#include <sys/resource.h>

#include <array>
#include <cmath>
#include <deque>
#include <exception>
#include <iostream>
#include <memory>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "common/rng.hpp"
#include "linalg/random_matrix.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "serve/batch.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace hqr::bench {

namespace {

using net::Tag;
using serve::TreeChoice;

// Request classes of the mix.
enum Cls { kSmall = 0, kBatch = 1, kClasses = 2 };
const char* const kClassName[kClasses] = {"small", "batch"};

// The inputs one tenant sends for one class, encoded once up front with the
// client defaults (ib = 0, FlatTs).
struct Pooled {
  Tag tag = Tag::SubmitQR;
  int b = 0;
  std::vector<Matrix> problems;  // one for SubmitQR
  std::vector<std::uint8_t> payload;
};

// pool[cls][tenant]; tenant t sends on connection t.
using RequestPool = std::array<std::vector<Pooled>, kClasses>;
// The reply payload each pooled request must get, [cls][tenant]: the R of
// every problem from qr_factorize_sequential, encoded. The encoding is a
// function of the R's bits alone, so equal payloads mean bit-identical R's.
using Replies = std::array<std::vector<std::vector<std::uint8_t>>, kClasses>;

// Every tenant sends its own small matrix but the same batch problems:
// generating a batch per tenant made input generation most of serve-mix's
// set-up time, and its most variable part.
RequestPool make_pool(const Config& c, std::uint64_t seed) {
  Rng rng = Rng(seed).split(2);
  std::vector<Matrix> batch;
  for (int i = 0; i < c.batch_problems; ++i)
    batch.push_back(random_gaussian(c.batch_m + i % 5, c.batch_n + i % 3, rng));
  RequestPool pool;
  for (int t = 0; t < c.connections; ++t) {
    Pooled small;
    small.b = c.small_b;
    serve::QRJob qr;
    qr.tenant = t;
    qr.b = small.b;
    qr.a = random_gaussian(c.small_m, c.small_n, rng);
    serve::encode_submit_qr(qr, small.payload);
    small.problems.push_back(std::move(qr.a));
    pool[kSmall].push_back(std::move(small));

    Pooled p;
    p.tag = Tag::SubmitBatch;
    p.b = c.batch_b;
    serve::BatchJob job;
    job.tenant = t;
    job.b = p.b;
    job.problems = batch;
    serve::encode_submit_batch(job, p.payload);
    p.problems = std::move(job.problems);
    pool[kBatch].push_back(std::move(p));
  }
  return pool;
}

// R of one problem exactly as the server computes it (any valid schedule
// of the same kernel list gives the same bits).
Matrix reference_r(const Matrix& a, int b) {
  const int mt = (a.rows() + b - 1) / b, nt = (a.cols() + b - 1) / b;
  return extract_r(qr_factorize_sequential(
      a, b, serve::elimination_for(TreeChoice::FlatTs, mt, nt), 0));
}

std::vector<std::uint8_t> expected_reply(const Pooled& p) {
  std::vector<std::uint8_t> out;
  if (p.tag == Tag::SubmitQR) {
    serve::QROutcome o;
    o.r = reference_r(p.problems[0], p.b);
    serve::encode_result(o, out);
  } else {
    std::vector<Matrix> rs;
    for (const Matrix& a : p.problems) rs.push_back(reference_r(a, p.b));
    serve::encode_batch_result(rs, out);
  }
  return out;
}

Replies expected_replies(const RequestPool& pool) {
  Replies replies;
  for (const Pooled& p : pool[kSmall]) replies[kSmall].push_back(expected_reply(p));
  // The tenants' batches hold the same problems (make_pool).
  replies[kBatch].assign(pool[kBatch].size(), expected_reply(pool[kBatch][0]));
  return replies;
}

struct Arrival {
  double t = 0.0;  // seconds after the phase starts
  int cls = kSmall;
  int conn = 0;
};

// Request classes dealt from shuffled decks of `batch_every` requests, one
// of them a batch: every run carries the mix exactly, so how many batches a
// run draws and how they clump cannot move its tail between seeds, while
// arrivals stay Poisson.
class ClassDeck {
 public:
  explicit ClassDeck(const Config& c) : counts_{c.batch_every - 1, 1} {}
  int next(Rng& rng) {
    if (deck_.empty()) {
      for (int cls = 0; cls < kClasses; ++cls) deck_.insert(deck_.end(), counts_[cls], cls);
      for (std::size_t i = deck_.size() - 1; i > 0; --i)
        std::swap(deck_[i], deck_[rng.below(i + 1)]);
    }
    const int cls = deck_.back();
    deck_.pop_back();
    return cls;
  }

 private:
  std::array<int, kClasses> counts_;
  std::vector<int> deck_;
};

// Poisson arrivals at `rate` requests/s over `duration` seconds.
std::vector<Arrival> poisson_schedule(const Config& c, double rate,
                                      double duration, Rng& rng) {
  std::vector<Arrival> s;
  ClassDeck deck(c);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration) return s;
    Arrival a;
    a.t = t;
    a.cls = deck.next(rng);
    a.conn = static_cast<int>(rng.below(static_cast<std::uint64_t>(c.connections)));
    s.push_back(a);
  }
}

// Server-side time of a set of requests: how many, and their seconds from
// submission to the pool until the reply was encoded.
struct ServerTime {
  double n = 0.0;
  double sum = 0.0;
  ServerTime operator-(const ServerTime& o) const { return {n - o.n, sum - o.sum}; }
};

struct PhaseResult {
  Samples latency;  // from each request's scheduled send time
  std::array<Samples, kClasses> by_class;
  Samples lag;  // generator: actual minus scheduled send time
  OpCount ops;         // answered requests; a wrong or refused reply failed
  long long unanswered = 0;  // still in flight when the phase ended
  bool valid = true;
  int max_inflight = 0;  // most requests the generator had outstanding
  double backlog_first = 0.0, backlog_last = 0.0;  // median in flight, first/last third
  double rss_after_warmup = 0.0;  // peak_rss_mb() before the open loop
  Samples queue_depth, active_dags;  // Server::status() every 10 ms
  ServerTime server_qr, server_batch;  // open loop only (with a registry)
};

// The load generator: one thread, nonblocking sockets, ppoll. Requests are
// written with the raw public framing; each reply is compared byte for
// byte with the one expected, so checking costs one comparison rather than
// a decode that would delay the sends behind it.
class LoadGen {
 public:
  LoadGen(const RequestPool& pool, const Replies& replies, std::uint16_t port,
          int connections)
      : pool_(pool), replies_(replies) {
    for (int i = 0; i < connections; ++i) {
      Conn c;
      c.fd = net::tcp_connect("127.0.0.1", port, now() + 10.0);
      net::set_tcp_nodelay(c.fd.get());
      conns_.push_back(std::move(c));
    }
  }

  // Sends the given (class, connection) requests at once and waits for all
  // replies; returns how many checked out.
  int burst(const std::vector<std::pair<int, int>>& requests) {
    for (const auto& [cls, conn] : requests) submit(cls, conn, now());
    const double deadline = now() + 60.0;
    while (inflight_ > 0 && now() < deadline) pump(0.05);
    int ok = 0;
    for (const Done& d : done_) ok += d.ok;
    done_.clear();
    return ok;
  }

  // Sends `schedule` open loop from now, then waits up to `drain` seconds
  // for the stragglers. A request still unanswered then is counted in
  // `unanswered` with the time it had waited, a lower bound on its
  // latency. More than `max_inflight` requests in flight ends the phase at
  // once, invalid: a server that has fallen that far behind would otherwise
  // buffer without bound.
  PhaseResult open_loop(const std::vector<Arrival>& schedule, double window,
                        double drain, int max_inflight, const serve::Server* sample,
                        Spans& spans, const std::string& phase) {
    PhaseResult r;
    const double t0 = now();
    const int top = spans.add("serve.phase." + phase, t0, t0 + window);
    std::vector<std::pair<double, int>> backlog;  // (time, in flight)
    std::size_t next = 0;
    double next_sample = t0;
    const double deadline = t0 + window + drain;
    bool overloaded = false;
    for (;;) {
      double tn = now();
      // Queue everything due before writing any of it, so one large
      // request's write does not count as lag for the arrivals behind it
      // (its latency still runs from the scheduled time).
      const std::size_t first_due = next;
      while (next < schedule.size() && t0 + schedule[next].t <= tn) {
        const double due = t0 + schedule[next].t;
        r.lag.add(tn - due);
        enqueue(schedule[next].cls, schedule[next].conn, due);
        ++next;
        tn = now();
      }
      if (next != first_due)
        for (Conn& c : conns_) flush(c);
      r.max_inflight = std::max(r.max_inflight, inflight_);
      if (tn >= next_sample) {
        backlog.emplace_back(tn - t0, inflight_);
        if (sample) {
          const serve::ServerStatus st = sample->status();
          r.queue_depth.add(static_cast<double>(st.ready_tasks));
          r.active_dags.add(static_cast<double>(st.active_dags));
        }
        next_sample += 0.01;
      }
      for (const Done& d : done_) {
        r.ops.record(d.ok);
        const double lat = d.ok ? d.t_done - d.t_sched : kFailed;
        r.latency.add(lat);
        r.by_class[d.cls].add(lat);
        if (spans.enabled())
          spans.add(std::string("serve.request.") + kClassName[d.cls], d.t_sched,
                    d.t_done, top, op_++);
      }
      done_.clear();
      if ((next == schedule.size() && inflight_ == 0) || tn > deadline) break;
      if (inflight_ > max_inflight) {
        overloaded = true;
        break;
      }
      const double wake =
          std::min(next < schedule.size() ? t0 + schedule[next].t : deadline,
                   next_sample);
      pump(std::max(0.0, wake - tn));
    }
    const double t_end = now();
    for (const Conn& c : conns_)
      for (const auto& [id, p] : c.pending) {
        ++r.unanswered;
        r.latency.add(t_end - p.t_sched);
        r.by_class[p.cls].add(t_end - p.t_sched);
      }
    // Valid when the server kept up: the in-flight count did not grow from
    // the first to the last third of the send window. Medians of the 10-ms
    // samples, so a stall of the host shorter than a sixth of the window
    // cannot tip it, while a backlog that keeps growing does.
    Samples first, last;
    for (const auto& [t, n] : backlog) {
      if (t < window / 3) first.add(n);
      else if (t >= 2 * window / 3 && t < window) last.add(n);
    }
    r.backlog_first = first.empty() ? 0.0 : first.median();
    r.backlog_last = last.empty() ? 0.0 : last.median();
    r.valid = !overloaded && r.backlog_last <= 2.0 * r.backlog_first + 4.0;
    if (!r.valid)
      std::cerr << "hqr_bench: serve phase '" << phase << "' invalid: backlog "
                << r.backlog_first << " -> " << r.backlog_last
                << (overloaded ? ", stopped at the in-flight limit" : "") << "\n";
    // A late send still has its latency counted from its scheduled time, so
    // generator lag raises the latencies rather than hiding any; it is a
    // symptom of the host, reported and warned about, not a failure.
    const double lag_tail = r.lag.empty() ? 0.0 : r.lag.percentile(0.99, 0);
    if (lag_tail > 0.005)
      std::cerr << "hqr_bench: serve phase '" << phase << "': generator lag p99 "
                << lag_tail << " s exceeds 5 ms\n";
    return r;
  }

  // Closed loop: `depth` requests outstanding per connection for `seconds`;
  // returns completed requests per second.
  double closed_loop(const Config& c, double seconds, int depth, Rng& rng) {
    ClassDeck deck(c);
    for (std::size_t k = 0; k < conns_.size(); ++k)
      for (int i = 0; i < depth; ++i)
        submit(deck.next(rng), static_cast<int>(k), now());
    const double t0 = now();
    long long completed = 0;
    while (now() < t0 + seconds) {
      pump(0.01);
      for (const Done& d : done_) {
        HQR_CHECK(d.ok, "request failed during calibration");
        ++completed;
        submit(deck.next(rng), d.conn, now());
      }
      done_.clear();
    }
    return static_cast<double>(completed) / (now() - t0);
  }

 private:
  // Socket bytes moved per connection between two looks at the schedule.
  static constexpr std::size_t kIoChunk = 256 * 1024;

  struct Pending {
    double t_sched = 0.0;
    int cls = 0;
  };
  struct OutFrame {
    std::array<std::uint8_t, net::kFrameHeaderBytes> header{};
    const std::vector<std::uint8_t>* payload = nullptr;
    std::size_t sent = 0;  // header and payload bytes written so far
  };
  struct Conn {
    net::Fd fd;
    std::deque<OutFrame> out;
    std::array<std::uint8_t, net::kFrameHeaderBytes> header{};
    std::size_t header_got = 0;
    std::vector<std::uint8_t> body;
    std::size_t body_got = 0;
    std::int32_t next_id = 1;
    std::unordered_map<std::int32_t, Pending> pending;
  };
  struct Done {
    double t_sched = 0.0, t_done = 0.0;
    int cls = 0, conn = 0;
    bool ok = false;
  };

  void submit(int cls, int conn, double t_sched) {
    enqueue(cls, conn, t_sched);
    flush(conns_[static_cast<std::size_t>(conn)]);
  }

  void enqueue(int cls, int conn, double t_sched) {
    Conn& c = conns_[static_cast<std::size_t>(conn)];
    const Pooled& p = pool_[cls][static_cast<std::size_t>(conn)];
    net::FrameHeader h;
    h.tag = static_cast<std::uint32_t>(p.tag);
    h.id = c.next_id++;
    h.bytes = p.payload.size();
    OutFrame f;
    net::encode_header(h, f.header.data());
    f.payload = &p.payload;
    c.out.push_back(f);
    c.pending[h.id] = {t_sched, cls};
    ++inflight_;
  }

  // Writes at most kIoChunk bytes: a loopback write runs the receive path
  // too, so one batch request written whole would hold up the sends due
  // behind it. pump() resumes the rest when the socket is writable.
  void flush(Conn& c) {
    std::size_t budget = kIoChunk;
    while (!c.out.empty()) {
      OutFrame& f = c.out.front();
      const std::size_t hb = net::kFrameHeaderBytes;
      const std::size_t total = hb + f.payload->size();
      while (f.sent < total) {
        if (budget == 0) return;
        const std::size_t want = std::min(budget, f.sent < hb ? hb - f.sent : total - f.sent);
        const std::ptrdiff_t n =
            f.sent < hb
                ? net::write_some(c.fd.get(), f.header.data() + f.sent, want)
                : net::write_some(c.fd.get(), f.payload->data() + (f.sent - hb), want);
        if (n == 0) return;  // socket buffer full
        f.sent += static_cast<std::size_t>(n);
        budget -= static_cast<std::size_t>(n);
      }
      c.out.pop_front();
    }
  }

  // Reads what is available, at most kIoChunk bytes of reply bodies (the
  // rest on the next pump()); completes every whole reply frame.
  void receive(Conn& c, int conn) {
    for (std::size_t got = 0; got < kIoChunk;) {
      if (c.header_got < c.header.size()) {
        const std::ptrdiff_t n = net::read_some(
            c.fd.get(), c.header.data() + c.header_got, c.header.size() - c.header_got);
        HQR_CHECK(n >= 0, "server closed a connection");
        if (n == 0) return;
        c.header_got += static_cast<std::size_t>(n);
        if (c.header_got < c.header.size()) continue;
        const net::FrameHeader h = net::decode_header(c.header.data());
        HQR_CHECK(h.magic == net::kMagic && net::valid_tag(h.tag),
                  "malformed reply frame");
        c.body.assign(static_cast<std::size_t>(h.bytes), 0);
        c.body_got = 0;
      }
      if (c.body_got < c.body.size()) {
        const std::ptrdiff_t n =
            net::read_some(c.fd.get(), c.body.data() + c.body_got,
                           std::min(c.body.size() - c.body_got, kIoChunk - got));
        HQR_CHECK(n >= 0, "server closed a connection");
        if (n == 0) return;
        c.body_got += static_cast<std::size_t>(n);
        got += static_cast<std::size_t>(n);
        if (c.body_got < c.body.size()) continue;
      }
      complete(c, conn, net::decode_header(c.header.data()));
      c.header_got = 0;
    }
  }

  void complete(Conn& c, int conn, const net::FrameHeader& h) {
    const auto it = c.pending.find(h.id);
    HQR_CHECK(it != c.pending.end(), "reply for unknown request " << h.id);
    const Pending p = it->second;
    c.pending.erase(it);
    --inflight_;
    Done d;
    d.t_sched = p.t_sched;
    d.t_done = now();
    d.cls = p.cls;
    d.conn = conn;
    const auto tag = static_cast<Tag>(h.tag);
    d.ok = tag == (p.cls == kBatch ? Tag::BatchResult : Tag::Result) &&
           c.body == replies_[p.cls][static_cast<std::size_t>(conn)];
    if (tag == Tag::ErrorReply)
      std::cerr << "hqr_bench: request refused: " << serve::decode_error(c.body).message
                << "\n";
    done_.push_back(d);
  }

  void pump(double timeout) {
    std::vector<pollfd> fds(conns_.size());
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd.get();
      fds[i].events = static_cast<short>(POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
    }
    timespec ts;
    ts.tv_sec = static_cast<time_t>(timeout);
    ts.tv_nsec = static_cast<long>((timeout - static_cast<double>(ts.tv_sec)) * 1e9);
    const int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    HQR_CHECK(rc >= 0 || errno == EINTR, "ppoll failed");
    for (std::size_t i = 0; i < conns_.size() && rc > 0; ++i) {
      if (fds[i].revents & POLLOUT) flush(conns_[i]);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
        receive(conns_[i], static_cast<int>(i));
    }
  }

  const RequestPool& pool_;
  const Replies& replies_;
  std::vector<Conn> conns_;
  std::vector<Done> done_;
  int inflight_ = 0;
  long long op_ = 0;
};

// Nice value of the server's threads (README.md, "Workloads").
constexpr int kServerNice = 5;

// The server under test with `c`'s pool and the given metrics sink. It is
// constructed on a thread running at nice kServerNice, so every thread it
// starts inherits that: the generator, which sleeps between sends, then
// wakes on schedule even while the server keeps every core busy. (Linux
// applies setpriority(PRIO_PROCESS, 0, ...) to the calling thread only;
// where it fails the server runs at the default priority.)
std::unique_ptr<serve::Server> start_server(const Config& c, obs::MetricsRegistry* m) {
  serve::ServerOptions o;
  o.threads = c.pool_threads;
  o.metrics = m;
  std::unique_ptr<serve::Server> server;
  std::exception_ptr error;
  std::thread([&] {
    (void)::setpriority(PRIO_PROCESS, 0, kServerNice);
    try {
      server = std::make_unique<serve::Server>(o);
    } catch (...) {
      error = std::current_exception();
    }
  }).join();
  if (error) std::rethrow_exception(error);
  return server;
}

// The warm-up: every tenant's request of every class, `warmup` times over,
// all in flight at once.
std::vector<std::pair<int, int>> full_burst(const Config& c) {
  std::vector<std::pair<int, int>> b;
  for (int round = 0; round < c.warmup; ++round)
    for (int conn = 0; conn < c.connections; ++conn)
      for (int cls = 0; cls < kClasses; ++cls) b.emplace_back(cls, conn);
  return b;
}

// Requests the server's serve.request_seconds.<kind> histogram holds.
ServerTime server_time(obs::MetricsRegistry& registry, const std::string& kind) {
  const auto& h = registry.histogram("serve.request_seconds." + kind);
  return {static_cast<double>(h.count()), h.sum()};
}

// One open-loop phase against a fresh server, after the warm-up burst.
// `registry` (when set) is the server's metrics sink and enables
// Server::status() sampling.
PhaseResult run_phase(Run& run, const RequestPool& pool, const Replies& replies,
                      double load, double window, std::uint64_t stream,
                      obs::MetricsRegistry* registry, const std::string& name) {
  const Config& c = run.cfg;
  Rng rng = Rng(run.seed).split(stream);
  const std::vector<Arrival> schedule =
      poisson_schedule(c, load * c.capacity_rps, window, rng);
  const std::unique_ptr<serve::Server> server = start_server(c, registry);
  PhaseResult r;
  ServerTime qr0, batch0;
  {
    LoadGen gen(pool, replies, server->port(), c.connections);
    const std::vector<std::pair<int, int>> warm = full_burst(c);
    const int ok = gen.burst(warm);
    for (std::size_t i = 0; i < warm.size(); ++i)
      run.ops.record(static_cast<int>(i) < ok);
    const double rss_after_warmup = peak_rss_mb();
    if (registry) {
      qr0 = server_time(*registry, "qr");
      batch0 = server_time(*registry, "batch");
    }
    r = gen.open_loop(schedule, window, c.smoke ? 5.0 : 15.0, c.max_inflight,
                      registry ? server.get() : nullptr, run.spans, name);
    r.rss_after_warmup = rss_after_warmup;
  }
  server->stop();
  if (registry) {
    r.server_qr = server_time(*registry, "qr") - qr0;
    r.server_batch = server_time(*registry, "batch") - batch0;
  }
  run.ops.attempted += r.ops.attempted;
  run.ops.failed += r.ops.failed;
  return r;
}

// A light phase: its latencies are only meaningful when it was valid, and
// a request it left unanswered failed.
PhaseResult light_phase(Run& run, const RequestPool& pool, const Replies& replies,
                        double window, std::uint64_t stream,
                        obs::MetricsRegistry* registry, const std::string& name) {
  PhaseResult r = run_phase(run, pool, replies, run.cfg.light_load, window, stream,
                            registry, name);
  run.check(r.valid, "serve phase '" + name + "' invalid");
  run.ops.attempted += r.unanswered;
  run.ops.failed += r.unanswered;
  return r;
}

// Share of the mix's requests that are small (SubmitQR).
double small_share(const Config& c) { return 1.0 - 1.0 / c.batch_every; }

}  // namespace

SetupProbe serve_setup(const Config& c, std::uint64_t seed) {
  // The reference for the one request sent is not part of set-up.
  const double t0 = now();
  Replies replies;
  replies[kSmall].push_back(expected_reply(make_pool(c, seed)[kSmall][0]));
  SetupProbe probe;
  probe.excluded = now() - t0;
  const RequestPool pool = make_pool(c, seed);
  const std::unique_ptr<serve::Server> server = start_server(c, nullptr);
  LoadGen gen(pool, replies, server->port(), c.connections);
  probe.ok = gen.burst({{kSmall, 0}}) == 1;
  probe.done = now();
  return probe;
}

void serve_e2e(Run& run) {
  const Config& c = run.cfg;
  const RequestPool pool = make_pool(c, run.seed);
  const Replies replies = expected_replies(pool);
  const PhaseResult light =
      light_phase(run, pool, replies, run.seconds, 3, nullptr, "light");

  // Over every request, failures of every class included.
  MetricList& m = run.metrics;
  m.add("latency_s.p50", light.latency.median(), "s");
  m.add("latency_s.p90", light.latency.percentile(0.9, c.min_beyond), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("ops", static_cast<double>(light.latency.size()), "count");
  m.add("peak_rss_mb.after_warmup", light.rss_after_warmup, "MB");
  m.add("loadgen.lag_s.p99", light.lag.percentile(0.99, c.min_beyond), "s");
  m.add("loadgen.inflight.max", light.max_inflight, "count");
  m.add("loadgen.backlog.first", light.backlog_first, "count");
  m.add("loadgen.backlog.last", light.backlog_last, "count");
  for (int cls = 0; cls < kClasses; ++cls)
    if (!light.by_class[cls].empty())
      m.add(std::string("serve.") + kClassName[cls] + ".latency_s.p50",
            light.by_class[cls].median(), "s");
}

void serve_layers(Run& run, KernelRates& rates, bool owner) {
  const Config& c = run.cfg;
  const RequestPool pool = make_pool(c, run.seed);
  const Replies replies = expected_replies(pool);
  MetricList& m = run.metrics;

  // Phase lengths give each tail percentile its samples.
  const double light_s = std::max(run.seconds / 3,
                                  c.tail_samples / (c.light_load * c.capacity_rps));
  const double heavy_s =
      c.tail_samples / (c.heavy_load * c.capacity_rps * small_share(c));

  // Untraced light phases before and after the traced one are the baseline
  // of the tracing overhead; bracketing it evens out host drift.
  Samples untraced;
  const auto untraced_phase = [&](std::uint64_t stream) {
    if (owner)
      untraced.append(light_phase(run, pool, replies, run.seconds / 6,
                                stream, nullptr, "untraced")
                          .latency);
  };
  obs::MetricsRegistry light_reg, heavy_reg;
  untraced_phase(3);
  const PhaseResult light =
      light_phase(run, pool, replies, light_s, 4, &light_reg, "light");
  untraced_phase(6);
  const PhaseResult heavy =
      run_phase(run, pool, replies, c.heavy_load, heavy_s, 5, &heavy_reg, "heavy");

  m.add("serve.latency_s.p99", light.latency.percentile(0.99, c.min_beyond), "s");
  for (int cls = 0; cls < kClasses; ++cls)
    m.add(std::string("serve.") + kClassName[cls] + ".latency_s.p50",
          light.by_class[cls].median(), "s");
  // The heavy phase probes close to where the server's backlog runs away;
  // its validity and the requests a runaway left unanswered are reported,
  // not counted as failures (README.md, "Traced runs").
  m.add("serve.heavy.valid", heavy.valid ? 1.0 : 0.0, "bool");
  m.add("serve.heavy.unanswered", static_cast<double>(heavy.unanswered), "count");
  // An invalid phase has no steady tail, and one stopped at the in-flight
  // limit may lack the samples a p99 needs: its slowest request stands in.
  const auto tail = [&](const Samples& s) {
    return heavy.valid ? s.percentile(0.99, c.min_beyond) : s.percentile(1.0, 0);
  };
  m.add("serve.heavy.latency_s.p50", heavy.latency.median(), "s");
  m.add("serve.heavy.latency_s.p99", tail(heavy.latency), "s");
  m.add("serve.small.heavy.latency_s.p99", tail(heavy.by_class[kSmall]), "s");
  // Server-side time of the open loop's requests: submit to the pool until
  // the reply is encoded (the server's serve.request_seconds histograms).
  const ServerTime& qr = light.server_qr;
  const ServerTime& batch = light.server_batch;
  m.add("serve.server_s.qr", qr.sum / qr.n, "s");
  m.add("serve.server_s.batch", batch.sum / batch.n, "s");
  // Everything outside that window: framing, socket transfer both ways,
  // request decode and graph build, reply decode.
  m.add("serve.wire_s", light.latency.mean() - (qr.sum + batch.sum) / (qr.n + batch.n),
        "s");
  m.add("serve.queue_depth.mean", heavy.queue_depth.mean(), "count");
  m.add("serve.active_dags.mean", heavy.active_dags.mean(), "count");
  m.add("loadgen.lag_s.p99", light.lag.percentile(0.99, c.min_beyond), "s");
  m.add("loadgen.heavy.lag_s.p99", heavy.lag.percentile(0.99, 0), "s");
  if (!owner) return;

  // serve-mix's factorization layers: the small class, four requests in five
  // and most of the mix's flops, through the executor with the pool's
  // threads. (A batch is one fused graph run by the pool, not an executor
  // call; serve.compute_s.batch covers it.)
  m.add("trace.overhead_frac", light.latency.median() / untraced.median() - 1.0,
        "ratio");
  const Pooled& small = pool[kSmall][0];
  const Matrix& a = small.problems[0];
  const int mt = (a.rows() + small.b - 1) / small.b, nt = (a.cols() + small.b - 1) / small.b;
  const EliminationList list = serve::elimination_for(TreeChoice::FlatTs, mt, nt);
  m.add("trees.list_s", probe_seconds([&] {
          const EliminationList l = serve::elimination_for(TreeChoice::FlatTs, mt, nt);
        }, c.probe_s, c.probe_reps), "s");
  rates.ensure(small.b, 0, run.seed, c);
  factor_layer_metrics(run, a, small.b, 0, c.pool_threads, list, rates,
                       [](const QRFactors& f) {
                         serve::QROutcome o;
                         o.r = extract_r(f);
                         std::vector<std::uint8_t> out;
                         serve::encode_result(o, out);
                       });
}

void probe_serve_classes(Run& run) {
  const Config& c = run.cfg;
  const RequestPool pool = make_pool(c, run.seed);
  const serve::ServerLimits limits;
  const auto probe = [&](const std::function<void()>& f) {
    return probe_seconds(f, c.probe_s, c.probe_reps);
  };
  for (int cls = 0; cls < kClasses; ++cls) {
    const Pooled& p = pool[cls][0];
    std::vector<Matrix> rs;
    for (const Matrix& a : p.problems) rs.push_back(reference_r(a, p.b));
    double build = 0, encode = 0, decode = 0, compute = 0;
    if (cls == kBatch) {
      serve::BatchJob job;
      job.b = p.b;
      job.problems = p.problems;
      std::vector<std::uint8_t> reply;
      serve::encode_batch_result(rs, reply);
      build = probe([&] { const serve::FusedBatch fb(p.problems, p.b, TreeChoice::FlatTs, 0); });
      encode = probe([&] {
        std::vector<std::uint8_t> req, rep;
        serve::encode_submit_batch(job, req);
        serve::encode_batch_result(rs, rep);
      });
      decode = probe([&] {
        serve::BatchJob back;
        HQR_CHECK(!serve::decode_submit_batch(p.payload, limits, &back), "bad batch");
        (void)serve::decode_batch_result(reply);
      });
      compute = probe([&] {
        serve::FusedBatch fb(p.problems, p.b, TreeChoice::FlatTs, 0);
        TileWorkspace ws(p.b);
        for (int i = 0; i < fb.graph()->size(); ++i) fb.execute(i, ws);
        for (std::size_t q = 0; q < fb.size(); ++q) (void)fb.r(q);
      });
    } else {
      const Matrix& a = p.problems[0];
      const int mt = (a.rows() + p.b - 1) / p.b, nt = (a.cols() + p.b - 1) / p.b;
      serve::QRJob job;
      job.b = p.b;
      job.a = a;
      serve::QROutcome out;
      out.r = rs[0];
      std::vector<std::uint8_t> reply;
      serve::encode_result(out, reply);
      build = probe([&] {
        const TaskGraph g(expand_to_kernels(
                              serve::elimination_for(TreeChoice::FlatTs, mt, nt), mt, nt),
                          mt, nt);
      });
      encode = probe([&] {
        std::vector<std::uint8_t> req, rep;
        serve::encode_submit_qr(job, req);
        serve::encode_result(out, rep);
      });
      decode = probe([&] {
        serve::QRJob back;
        HQR_CHECK(!serve::decode_submit_qr(p.payload, limits, &back), "bad request");
        (void)serve::decode_result(reply);
      });
      compute = probe([&] { (void)reference_r(a, p.b); });
    }
    const std::string name = kClassName[cls];
    run.metrics.add("dag.build_s." + name, build, "s");
    run.metrics.add("protocol.encode_s." + name, encode, "s");
    run.metrics.add("protocol.decode_s." + name, decode, "s");
    run.metrics.add("serve.compute_s." + name, compute, "s");
  }
}

double serve_calibrate(const Config& c, std::uint64_t seed, double seconds) {
  const RequestPool pool = make_pool(c, seed);
  const Replies replies = expected_replies(pool);
  const std::unique_ptr<serve::Server> server = start_server(c, nullptr);
  LoadGen gen(pool, replies, server->port(), c.connections);
  const std::vector<std::pair<int, int>> warm = full_burst(c);
  HQR_CHECK(gen.burst(warm) == static_cast<int>(warm.size()), "warm-up request failed");
  Rng rng = Rng(seed).split(9);
  return gen.closed_loop(c, seconds, 2, rng);
}

}  // namespace hqr::bench
