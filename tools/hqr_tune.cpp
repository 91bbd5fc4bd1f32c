// hqr_tune: empirical kernel autotuner CLI.
//
// Searches micro-kernel shape x GEMM cache blocking for this machine (see
// core/kernel_tune.hpp) and writes the winner
// to the per-host tuning cache, which every hqr binary loads automatically
// at startup.
//
//   hqr_tune [--b N] [--ib N] [--min-time SECS] [--out PATH] [--dry-run]
//            [--quiet]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/kernel_tune.hpp"
#include "linalg/micro_kernel.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--b N] [--ib N] [--min-time SECS] [--out PATH]\n"
      "          [--dry-run] [--quiet]\n"
      "  --b N          tile size to tune for (default 280)\n"
      "  --ib N         inner block size of the timed kernel, 1..b (default 32)\n"
      "  --min-time S   seconds of measurement per candidate (default 0.02)\n"
      "  --out PATH     cache file to write (default: the per-host path)\n"
      "  --dry-run      search and print, but do not write the cache\n"
      "  --quiet        suppress per-candidate progress\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  hqr::TuneOptions opts;
  std::string out_path;
  bool dry_run = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--b") {
      opts.b = std::atoi(next());
    } else if (arg == "--ib") {
      opts.ib = std::atoi(next());
    } else if (arg == "--min-time") {
      opts.min_time = std::atof(next());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--dry-run") {
      dry_run = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0], arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (opts.b < 8 || opts.ib < 1 || opts.ib > opts.b || opts.min_time <= 0.0) {
    std::fprintf(stderr, "%s: invalid options\n", argv[0]);
    return 2;
  }
  if (out_path.empty()) out_path = hqr::default_tuning_path();

  std::printf("hqr_tune: cpu %s, b=%d ib=%d\n", hqr::tuning_cpu_id().c_str(),
              opts.b, opts.ib);
  if (!quiet) {
    opts.report = [](const std::string& desc, double gfs) {
      std::printf("  %-32s %7.2f GFlop/s\n", desc.c_str(), gfs);
    };
  }

  const hqr::KernelTuning best = hqr::tune_kernels(opts);
  std::printf("best: kernel=%s mc=%d kc=%d nc=%d\n", best.kernel.c_str(),
              best.blocking.mc, best.blocking.kc, best.blocking.nc);

  if (dry_run) {
    std::printf("dry run: not writing %s\n", out_path.c_str());
    return 0;
  }
  if (!hqr::save_kernel_tuning(out_path, best)) {
    std::fprintf(stderr, "%s: failed to write %s\n", argv[0],
                 out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
