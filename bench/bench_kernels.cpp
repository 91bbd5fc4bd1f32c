// Microbenchmarks of the six tile kernels (google-benchmark): the real
// numeric kernels at the production b = 200, ib = 32 and the paper's
// b = 280.
//
// Every benchmark runs under a selectable GEMM backend (last Args entry:
// 0 = packed cache-blocked core, 1 = retained naive loops), so the same
// binary produces the speedup pairs that gate the blocked core. The
// TS-vs-TT rate gap measured here is the quantity the simulator's
// calibration (KernelRates) encodes.
//
// Pass --json[=PATH] to additionally write machine-readable results
// (default PATH: BENCH_kernels.json; see DESIGN.md for the schema). The
// hqr-bench-kernels-v2 schema carries a machine identity block (cpu id,
// supported ISA tiers, the dispatched micro-kernel) and per-result
// "isa"/"shape" fields recording which micro-kernel produced the number:
//   {"kernel": "tsmqr", "b": 200, "ib": 32, "backend": "packed",
//    "isa": "avx512", "shape": "16x8", "gflops": ...}
// plus packed-vs-naive speedups for every (kernel, b, ib) measured under
// both backends. tools/bench_compare.py refuses to gate files from
// different machines unless told otherwise (--allow-cross-host).
#include <benchmark/benchmark.h>

#include <cctype>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kernels/ib_kernels.hpp"
#include "kernels/weights.hpp"
#include "linalg/kernel_tuning.hpp"
#include "linalg/micro_kernel.hpp"
#include "linalg/random_matrix.hpp"

namespace hqr {
namespace {

struct BenchResult {
  std::string kernel;
  int b = 0;
  int ib = 0;
  std::string backend;
  std::string isa;    // micro-kernel ISA tier active during the run
  std::string shape;  // its MR x NR register tile, e.g. "16x8"
  double gflops = 0.0;
};

std::vector<BenchResult>& collected() {
  static std::vector<BenchResult> results;
  return results;
}

// Captures each finished run's rate counter for the JSON writer, then
// defers to the console output.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      BenchResult r;
      // Names look like "BM_Tsmqr/200/32/0": kernel / b / ib / backend.
      const std::string name = run.benchmark_name();
      const std::size_t slash = name.find('/');
      std::string kernel = name.substr(0, slash);
      if (kernel.rfind("BM_", 0) == 0) kernel = kernel.substr(3);
      for (char& c : kernel) c = static_cast<char>(std::tolower(c));
      r.kernel = kernel;
      r.b = static_cast<int>(run.counters.at("b"));
      r.ib = static_cast<int>(run.counters.at("ib"));
      r.backend = run.counters.at("naive") != 0 ? "naive" : "packed";
      const MicroKernel& mk = active_micro_kernel();
      r.isa = mk.isa;
      r.shape = std::to_string(mk.mr) + "x" + std::to_string(mk.nr);
      r.gflops = run.counters.at("GFlop/s");
      collected().push_back(r);
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

void write_json(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_kernels: cannot write " << path << "\n";
    return;
  }
  const MicroKernel& mk = active_micro_kernel();
  out << "{\n  \"schema\": \"hqr-bench-kernels-v2\",\n";
  // Machine identity: bench numbers only compare within one host, so the
  // comparison tooling can refuse cross-host gating.
  out << "  \"machine\": {\"cpu\": \"" << tuning_cpu_id()
      << "\", \"isa_supported\": [";
  bool first = true;
  for (const char* tier : {"portable", "avx2", "avx512"}) {
    if (!micro_kernel_isa_supported(tier)) continue;
    out << (first ? "" : ", ") << "\"" << tier << "\"";
    first = false;
  }
  out << "], \"kernel\": \"" << mk.name << "\"},\n  \"results\": [\n";
  const std::vector<BenchResult>& rs = collected();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const BenchResult& r = rs[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"b\": " << r.b
        << ", \"ib\": " << r.ib << ", \"backend\": \"" << r.backend
        << "\", \"isa\": \"" << r.isa << "\", \"shape\": \"" << r.shape
        << "\", \"gflops\": " << r.gflops << "}"
        << (i + 1 < rs.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"speedups\": [\n";
  // Packed-over-naive ratio for every configuration measured both ways.
  std::vector<std::string> lines;
  for (const BenchResult& p : rs) {
    if (p.backend != "packed") continue;
    for (const BenchResult& n : rs) {
      if (n.backend == "naive" && n.kernel == p.kernel && n.b == p.b &&
          n.ib == p.ib && n.gflops > 0.0) {
        lines.push_back("    {\"kernel\": \"" + p.kernel +
                        "\", \"b\": " + std::to_string(p.b) +
                        ", \"ib\": " + std::to_string(p.ib) +
                        ", \"speedup\": " + std::to_string(p.gflops / n.gflops) +
                        "}");
      }
    }
  }
  for (std::size_t i = 0; i < lines.size(); ++i)
    out << lines[i] << (i + 1 < lines.size() ? "," : "") << "\n";
  out << "  ]\n}\n";
  std::cout << "bench_kernels: wrote " << path << "\n";
}

Matrix random_tile(int b, std::uint64_t seed) {
  Rng rng(seed);
  return random_gaussian(b, b, rng);
}

// Applies the backend selected by the benchmark's last argument for the
// duration of one benchmark, restoring the default afterwards.
class BackendGuard {
 public:
  explicit BackendGuard(bool naive) {
    if (naive) set_gemm_backend(GemmBackend::Naive);
  }
  ~BackendGuard() { set_gemm_backend(GemmBackend::Packed); }
};

// Args are {b, ib, naive}.
void report(benchmark::State& state, KernelType type) {
  const int b = static_cast<int>(state.range(0));
  state.counters["GFlop/s"] = benchmark::Counter(
      kernel_flops(type, b) * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
  state.counters["b"] = static_cast<double>(state.range(0));
  state.counters["ib"] = static_cast<double>(state.range(1));
  state.counters["naive"] = static_cast<double>(state.range(2));
}

void BM_Geqrt(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  const int ib = static_cast<int>(state.range(1));
  BackendGuard guard(state.range(2) != 0);
  Matrix a0 = random_tile(b, 1);
  Matrix t(ib, b);
  TileWorkspace ws(b);
  for (auto _ : state) {
    state.PauseTiming();
    Matrix a = a0;
    state.ResumeTiming();
    geqrt_ib(a.view(), t.view(), ib, ws);
    benchmark::DoNotOptimize(a.storage().data());
  }
  report(state, KernelType::GEQRT);
}

void BM_Unmqr(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  const int ib = static_cast<int>(state.range(1));
  BackendGuard guard(state.range(2) != 0);
  Matrix v = random_tile(b, 2);
  Matrix t(ib, b);
  TileWorkspace ws(b);
  geqrt_ib(v.view(), t.view(), ib, ws);
  Matrix c = random_tile(b, 3);
  for (auto _ : state) {
    unmqr_ib(v.view(), t.view(), ib, Trans::Yes, c.view(), ws);
    benchmark::DoNotOptimize(c.storage().data());
  }
  report(state, KernelType::UNMQR);
}

void BM_Tsqrt(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  const int ib = static_cast<int>(state.range(1));
  BackendGuard guard(state.range(2) != 0);
  Matrix a1_0 = random_tile(b, 4);
  Matrix a2_0 = random_tile(b, 5);
  Matrix t(ib, b);
  TileWorkspace ws(b);
  for (auto _ : state) {
    state.PauseTiming();
    Matrix a1 = a1_0, a2 = a2_0;
    state.ResumeTiming();
    tsqrt_ib(a1.view(), a2.view(), t.view(), ib, ws);
    benchmark::DoNotOptimize(a2.storage().data());
  }
  report(state, KernelType::TSQRT);
}

void BM_Tsmqr(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  const int ib = static_cast<int>(state.range(1));
  BackendGuard guard(state.range(2) != 0);
  Matrix a1 = random_tile(b, 6), a2 = random_tile(b, 7);
  Matrix t(ib, b);
  TileWorkspace ws(b);
  tsqrt_ib(a1.view(), a2.view(), t.view(), ib, ws);
  Matrix c1 = random_tile(b, 8), c2 = random_tile(b, 9);
  for (auto _ : state) {
    tsmqr_ib(c1.view(), c2.view(), a2.view(), t.view(), ib, Trans::Yes, ws);
    benchmark::DoNotOptimize(c2.storage().data());
  }
  report(state, KernelType::TSMQR);
}

void BM_Ttqrt(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  const int ib = static_cast<int>(state.range(1));
  BackendGuard guard(state.range(2) != 0);
  Matrix a1_0 = random_tile(b, 10);
  Matrix a2_0 = random_tile(b, 11);
  Matrix t(ib, b);
  TileWorkspace ws(b);
  for (auto _ : state) {
    state.PauseTiming();
    Matrix a1 = a1_0, a2 = a2_0;
    state.ResumeTiming();
    ttqrt_ib(a1.view(), a2.view(), t.view(), ib, ws);
    benchmark::DoNotOptimize(a2.storage().data());
  }
  report(state, KernelType::TTQRT);
}

void BM_Ttmqr(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  const int ib = static_cast<int>(state.range(1));
  BackendGuard guard(state.range(2) != 0);
  Matrix a1 = random_tile(b, 12), a2 = random_tile(b, 13);
  Matrix t(ib, b);
  TileWorkspace ws(b);
  ttqrt_ib(a1.view(), a2.view(), t.view(), ib, ws);
  Matrix c1 = random_tile(b, 14), c2 = random_tile(b, 15);
  for (auto _ : state) {
    ttmqr_ib(c1.view(), c2.view(), a2.view(), t.view(), ib, Trans::Yes, ws);
    benchmark::DoNotOptimize(c2.storage().data());
  }
  report(state, KernelType::TTMQR);
}

// Coverage: every reported (b, ib) point under both backends, so the
// packed/naive speedup ratio — the load-insensitive quantity the CI gate
// checks — is defined everywhere: the production configuration (b = 200,
// ib = 32) and the paper's b = 280.
void configure(benchmark::internal::Benchmark* bench) {
  bench->Args({200, 32, 0})
      ->Args({200, 32, 1})
      ->Args({280, 32, 0})
      ->Args({280, 32, 1})
      ->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Geqrt)->Apply(configure);
BENCHMARK(BM_Unmqr)->Apply(configure);
BENCHMARK(BM_Tsqrt)->Apply(configure);
BENCHMARK(BM_Tsmqr)->Apply(configure);
BENCHMARK(BM_Ttqrt)->Apply(configure);
BENCHMARK(BM_Ttmqr)->Apply(configure);

}  // namespace
}  // namespace hqr

int main(int argc, char** argv) {
  // Peel off --json[=PATH] before google-benchmark sees the argv.
  std::string json_path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = "BENCH_kernels.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  hqr::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) hqr::write_json(json_path);
  return 0;
}
