// Measurement harness shared by every hqr_bench workload: the warm-up + rep
// loop, order statistics, peak memory, the host identity block, in-memory
// spans exported as Perfetto JSON, and the named metric list the benchmark
// prints.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "linalg/kernel_tuning.hpp"
#include "linalg/micro_kernel.hpp"

namespace hqr::bench {

inline double now() { return monotonic_seconds(); }

inline constexpr double kFailed = std::numeric_limits<double>::infinity();

// One run's samples of one quantity. A failed operation is recorded as
// kFailed (+infinity), so it counts as missing every latency limit.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  // Nearest-rank percentile, q in (0, 1]: the sample at 1-based rank
  // ceil(q * n) of the sorted samples. A tail percentile means nothing
  // without samples beyond it, so this throws hqr::Error when fewer than
  // `min_beyond` samples rank above the answer.
  double percentile(double q, int min_beyond = 10) const {
    HQR_CHECK(!v_.empty(), "percentile of an empty sample");
    HQR_CHECK(q > 0.0 && q <= 1.0, "percentile q out of (0, 1]: " << q);
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const auto n = static_cast<long long>(s.size());
    const auto rank = std::max(
        1LL, static_cast<long long>(std::ceil(q * static_cast<double>(n) - 1e-9)));
    HQR_CHECK(n - rank >= min_beyond,
              "p" << q * 100 << " over " << n << " samples has " << n - rank
                  << " beyond it; need " << min_beyond);
    return s[static_cast<std::size_t>(rank - 1)];
  }
  double median() const { return percentile(0.5, 0); }
  double min() const {
    HQR_CHECK(!v_.empty(), "minimum of an empty sample");
    return *std::min_element(v_.begin(), v_.end());
  }
  double iqr() const { return percentile(0.75, 0) - percentile(0.25, 0); }
  double mean() const {
    double s = 0.0;
    for (double x : v_) s += x;
    return v_.empty() ? 0.0 : s / static_cast<double>(v_.size());
  }

 private:
  std::vector<double> v_;
};

// Tallies of operations tried and failed; failures feed error_rate.
struct OpCount {
  long long attempted = 0;
  long long failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// Warm-up plus the timed rep loop: runs the operation `warmup` times, then
// until `seconds` have passed and at least `min_ops` were timed. Only `op`
// is timed; `check` then verifies its output. An operation that throws
// hqr::Error or fails its check counts as failed, with latency kFailed.
inline Samples rep_loop(int warmup, double seconds, int min_ops,
                        const std::function<void()>& op,
                        const std::function<bool()>& check, OpCount& count) {
  const auto attempt = [&]() -> double {
    bool ok = false;
    double dt = 0.0;
    try {
      const double t0 = now();
      op();
      dt = now() - t0;
      ok = check();
    } catch (const Error& e) {
      std::fprintf(stderr, "hqr_bench: operation failed: %s\n", e.what());
    }
    count.record(ok);
    return ok ? dt : kFailed;
  };
  for (int i = 0; i < warmup; ++i) attempt();
  Samples s;
  const double end = now() + seconds;
  while (now() < end || static_cast<int>(s.size()) < min_ops) s.add(attempt());
  return s;
}

// The loop of the isolated probes: wall times of `call` over at least
// `min_reps` calls and `seconds`, each call after an untimed `prepare`.
inline Samples probe_samples(
    const std::function<void()>& call, double seconds, int min_reps,
    const std::function<void()>& prepare = [] {}) {
  Samples s;
  const double end = now() + seconds;
  while (now() < end || static_cast<int>(s.size()) < min_reps) {
    prepare();
    const double t0 = now();
    call();
    s.add(now() - t0);
  }
  return s;
}

// Their median.
inline double probe_seconds(
    const std::function<void()>& call, double seconds, int min_reps,
    const std::function<void()>& prepare = [] {}) {
  return probe_samples(call, seconds, min_reps, prepare).median();
}

// Largest resident set of this process and of every reaped child (the
// forked ranks), in MB.
inline double peak_rss_mb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) *
         1024.0 / 1e6;  // ru_maxrss is in KiB on Linux
}

// Which machine and kernel configuration produced the numbers. HQR_TUNING
// is recorded because a per-host tuning cache changes the kernels' blocking.
struct HostInfo {
  std::string cpu;
  long nproc = 0;
  std::string micro_kernel;
  std::string tuning;
};

inline HostInfo host_info() {
  HostInfo h;
  h.cpu = tuning_cpu_id();
  h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  h.micro_kernel = active_micro_kernel().name;
  const char* t = std::getenv("HQR_TUNING");
  h.tuning = t ? std::string("HQR_TUNING=") + t : "per-host cache";
  return h;
}

// Spans taken around calls into the library's public API, kept in memory and
// written once as Perfetto (Chrome trace-event) JSON. Spans of one operation
// share its op id; `parent` names the enclosing span.
class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    long long op = -1;
  };

  explicit Spans(bool enabled = false) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Records a finished span and returns its id (-1 when disabled).
  int add(const std::string& name, double start, double end, int parent = -1,
          long long op = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, start, end, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Opens a span ending at close(); returns its id (-1 when disabled).
  int open(const std::string& name, int parent = -1, long long op = -1) {
    return add(name, now(), -1.0, parent, op);
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now();
  }

  void save_perfetto(const std::string& path) const {
    std::ofstream out(path);
    HQR_CHECK(out.good(), "cannot write " << path);
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    // Async begin/end pairs: concurrent requests overlap without nesting.
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const auto event = [&](char ph, double t) {
        out << "{\"name\":\"" << s.name << "\",\"cat\":\"hqr_bench\",\"ph\":\""
            << ph << "\",\"id\":" << i << ",\"pid\":1,\"tid\":1,\"ts\":"
            << (t - t0) * 1e6 << ",\"args\":{\"parent\":" << s.parent
            << ",\"op\":" << s.op << "}}";
      };
      out << (i ? ",\n" : "");
      event('b', s.start);
      out << ",\n";
      event('e', s.end);
    }
    out << "\n]}\n";
    HQR_CHECK(out.good(), "write to " << path << " failed");
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// The named metrics one run reports, printed as `name value unit` lines.
class MetricList {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void add(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_)
      if (m.name == name) {
        m = {name, value, unit};
        return;
      }
    metrics_.push_back({name, value, unit});
  }

  void print(std::ostream& os) const {
    char buf[64];
    for (const Metric& m : metrics_) {
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      os << m.name << " " << buf << " " << m.unit << "\n";
    }
  }

  // {"name": {"value": v, "unit": "u"}, ...}; non-finite values (a tail
  // made of failed operations) are written as Infinity.
  void write_json(std::ostream& os) const {
    char buf[64];
    os << "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      if (std::isfinite(m.value))
        std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      else
        std::snprintf(buf, sizeof(buf), "Infinity");
      os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << buf
         << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}";
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace hqr::bench
