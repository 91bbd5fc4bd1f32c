// Benchmark of the QR-as-a-service path: an in-process server on a
// loopback socket, real wire framing, real client threads.
//
// Two experiments:
//   1. Request latency under concurrency — `--clients` is swept (1..max);
//      each client thread submits `--requests` QR jobs of the same shape
//      back to back and records the client-observed latency of each.
//      Reported: throughput (requests/s) and p50/p95/p99 latency.
//   2. Batching — `--problems` small QRs submitted (a) as ONE
//      SubmitBatch, which the server runs as one DAG of one task per
//      problem, and (b) as the same problems submitted one request at a
//      time. The batch/sequential ratio (the "batch-fused" row's
//      fused_speedup) is the payoff of batching tiny problems: one request,
//      one admission, one completion barrier, no round trip per problem.
//
// Pass --json=PATH for machine-readable results (schema
// hqr-bench-serve-v1, consumed by tools/bench_compare.py).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "linalg/random_matrix.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace hqr;
using namespace hqr::serve;

namespace {

struct LatencyRow {
  int clients;
  int requests;  // total across clients
  double seconds;
  double throughput_rps;
  double p50_ms, p95_ms, p99_ms;
};

struct BatchRow {
  std::string mode;
  int problems;
  double seconds;
  double problems_per_second;
  double fused_speedup;  // only on the fused row; 0 elsewhere
};

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0.0;
  const double idx = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

LatencyRow run_latency(const Server& server, int clients, int per_client,
                       int m, int n, int b) {
  std::vector<std::vector<double>> lat(clients);
  std::vector<std::thread> threads;
  Stopwatch sw;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(1000 + c);
      ClientOptions copts;
      copts.port = server.port();
      copts.tenant = c;
      Client client(copts);
      Matrix a = random_gaussian(m, n, rng);
      for (int rep = 0; rep < per_client; ++rep) {
        Stopwatch one;
        (void)client.submit_qr(a, b);
        lat[c].push_back(one.seconds() * 1e3);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double total = sw.seconds();

  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  LatencyRow row;
  row.clients = clients;
  row.requests = static_cast<int>(all.size());
  row.seconds = total;
  row.throughput_rps = static_cast<double>(all.size()) / total;
  row.p50_ms = percentile(all, 0.50);
  row.p95_ms = percentile(all, 0.95);
  row.p99_ms = percentile(all, 0.99);
  return row;
}

void write_json(const std::string& path, int m, int n, int b, int threads,
                int small_m, int small_n, int small_b,
                const std::vector<LatencyRow>& lat,
                const std::vector<BatchRow>& batch) {
  std::ofstream out(path);
  HQR_CHECK(out.good(), "cannot write " << path);
  out << "{\n  \"schema\": \"hqr-bench-serve-v1\",\n"
      << "  \"m\": " << m << ", \"n\": " << n << ", \"b\": " << b
      << ", \"threads\": " << threads << ",\n"
      << "  \"small_m\": " << small_m << ", \"small_n\": " << small_n
      << ", \"small_b\": " << small_b << ",\n  \"results\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const LatencyRow& r : lat) {
    sep();
    out << "    {\"mode\": \"qr\", \"clients\": " << r.clients
        << ", \"requests\": " << r.requests << ", \"seconds\": " << r.seconds
        << ", \"throughput_rps\": " << r.throughput_rps
        << ", \"p50_ms\": " << r.p50_ms << ", \"p95_ms\": " << r.p95_ms
        << ", \"p99_ms\": " << r.p99_ms << "}";
  }
  for (const BatchRow& r : batch) {
    sep();
    out << "    {\"mode\": \"" << r.mode << "\", \"problems\": " << r.problems
        << ", \"seconds\": " << r.seconds
        << ", \"problems_per_second\": " << r.problems_per_second;
    if (r.fused_speedup > 0.0)
      out << ", \"fused_speedup\": " << r.fused_speedup;
    out << "}";
  }
  out << "\n  ]\n}\n";
  std::cout << "(json written to " << path << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv, {{"m", "256"},
                       {"n", "128"},
                       {"b", "32"},
                       {"threads", "4"},
                       {"max-clients", "8"},
                       {"requests", "8"},
                       {"problems", "1000"},
                       {"small-m", "24"},
                       {"small-n", "16"},
                       {"small-b", "8"},
                       {"json", ""},
                       {"csv", ""}});
  const int m = static_cast<int>(cli.integer("m"));
  const int n = static_cast<int>(cli.integer("n"));
  const int b = static_cast<int>(cli.integer("b"));
  const int threads = static_cast<int>(cli.integer("threads"));
  const int max_clients = static_cast<int>(cli.integer("max-clients"));
  const int per_client = static_cast<int>(cli.integer("requests"));
  const int problems = static_cast<int>(cli.integer("problems"));
  const int small_m = static_cast<int>(cli.integer("small-m"));
  const int small_n = static_cast<int>(cli.integer("small-n"));
  const int small_b = static_cast<int>(cli.integer("small-b"));

  ServerOptions sopts;
  sopts.threads = threads;
  Server server(sopts);

  // -- Experiment 1: latency/throughput vs client concurrency ------------
  std::vector<LatencyRow> lat;
  TextTable lat_table({"clients", "requests", "throughput_rps", "p50_ms",
                       "p95_ms", "p99_ms"});
  for (int clients = 1; clients <= max_clients; clients *= 2) {
    LatencyRow row = run_latency(server, clients, per_client, m, n, b);
    lat.push_back(row);
    lat_table.row()
        .add(row.clients)
        .add(row.requests)
        .add(row.throughput_rps, 4)
        .add(row.p50_ms, 4)
        .add(row.p95_ms, 4)
        .add(row.p99_ms, 4);
  }
  std::ostringstream title;
  title << "serve latency, " << m << "x" << n << " b=" << b << ", "
        << threads << " worker threads";
  bench::emit(lat_table, cli, title.str());

  // -- Experiment 2: fused batch vs one-request-at-a-time ----------------
  Rng rng(7);
  std::vector<Matrix> small;
  small.reserve(static_cast<std::size_t>(problems));
  for (int p = 0; p < problems; ++p)
    small.push_back(
        random_gaussian(small_m + p % 5, small_n + p % 3, rng));

  ClientOptions copts;
  copts.port = server.port();
  Client client(copts);

  Stopwatch fused_sw;
  std::vector<Matrix> fused_rs = client.submit_batch(small, small_b);
  const double fused_seconds = fused_sw.seconds();
  HQR_CHECK(fused_rs.size() == small.size(), "batch result count mismatch");

  Stopwatch seq_sw;
  for (const Matrix& a : small) (void)client.submit_qr(a, small_b);
  const double seq_seconds = seq_sw.seconds();

  std::vector<BatchRow> batch;
  batch.push_back({"batch-fused", problems, fused_seconds,
                   problems / fused_seconds, seq_seconds / fused_seconds});
  batch.push_back({"batch-sequential", problems, seq_seconds,
                   problems / seq_seconds, 0.0});
  TextTable batch_table(
      {"mode", "problems", "seconds", "problems_per_second", "speedup"});
  for (const BatchRow& r : batch)
    batch_table.row()
        .add(r.mode)
        .add(r.problems)
        .add(r.seconds, 4)
        .add(r.problems_per_second, 5)
        .add(r.fused_speedup > 0.0 ? r.fused_speedup : 1.0, 4);
  std::ostringstream btitle;
  btitle << "batch fusion, " << problems << " problems ~" << small_m << "x"
         << small_n << " b=" << small_b;
  bench::emit(batch_table, cli, btitle.str());

  if (cli.has("json") && !cli.str("json").empty())
    write_json(cli.str("json"), m, n, b, threads, small_m, small_n, small_b,
               lat, batch);
  server.stop();
  return 0;
}
