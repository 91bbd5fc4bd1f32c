#include "core/kernel_tune.hpp"

#include <chrono>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "kernels/ib_kernels.hpp"
#include "linalg/micro_kernel.hpp"
#include "linalg/random_matrix.hpp"

namespace hqr {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Times one rep of `body` repeatedly until `min_time` seconds accumulate
// (one warmup rep excluded) and returns seconds per rep.
template <typename F>
double time_per_rep(double min_time, F&& body) {
  body();  // warmup: faults pages, sizes pack buffers, warms caches
  int reps = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  do {
    body();
    ++reps;
    elapsed = seconds_since(t0);
  } while (elapsed < min_time);
  return elapsed / reps;
}

// Benchmark fixture: a factored tile pair so the apply runs on well-scaled
// compact-WY data (random V/T would blow the iterates up).
struct TuneFixture {
  int b;
  int ib;
  Matrix c1_src, c2_src;
  Matrix v2, t, c1, c2;

  TuneFixture(int b_, int ib_)
      : b(b_), ib(ib_), c1_src(b_, b_), c2_src(b_, b_), v2(b_, b_),
        t(ib_, b_), c1(b_, b_), c2(b_, b_) {
    Rng rng(42);
    Matrix a = random_uniform(b, b, rng);
    c1_src = random_uniform(b, b, rng);
    c2_src = random_uniform(b, b, rng);
    v2 = random_uniform(b, b, rng);
    TileWorkspace ws(b);
    tsqrt_ib(a.view(), v2.view(), t.view(), ib, ws);
  }

  // One TSMQR apply (weight 12: the dominant DAG kernel); returns its
  // nominal flops.
  double apply_once(TileWorkspace& ws) {
    copy(c1_src.view(), c1.view());
    copy(c2_src.view(), c2.view());
    tsmqr_ib(c1.view(), c2.view(), v2.view(), t.view(), ib, Trans::Yes, ws);
    return 4.0 * b * b * static_cast<double>(b);
  }
};

}  // namespace

KernelTuning tune_kernels(const TuneOptions& opts) {
  HQR_CHECK(opts.b >= 8, "tune: tile size too small");
  HQR_CHECK(opts.ib >= 1 && opts.ib <= opts.b,
            "tune: inner block ib=" << opts.ib << " out of [1, " << opts.b
                                    << "]");
  const GemmBlocking saved_blocking = gemm_blocking();
  const MicroKernel& saved_kernel = active_micro_kernel();

  TuneFixture fx(opts.b, opts.ib);
  TileWorkspace ws(opts.b);

  const std::vector<int> mcs = {96, 144, 192, 288};
  const std::vector<int> kcs = {192, 256, 320};

  KernelTuning best = default_kernel_tuning();
  double best_gfs = 0.0;
  for (const MicroKernel& k : micro_kernel_registry()) {
    if (!micro_kernel_isa_supported(k.isa)) continue;
    set_active_micro_kernel(k);
    for (const int mc : mcs) {
      for (const int kc : kcs) {
        GemmBlocking bl;
        bl.mc = mc;
        bl.kc = kc;
        set_gemm_blocking(bl);
        double flops = 0.0;
        const double spr = time_per_rep(opts.min_time, [&] {
          flops = fx.apply_once(ws);
        });
        const double gfs = flops / spr * 1e-9;
        if (opts.report) {
          std::ostringstream desc;
          desc << k.name << " mc=" << mc << " kc=" << kc;
          opts.report(desc.str(), gfs);
        }
        if (gfs > best_gfs) {
          best_gfs = gfs;
          best.kernel = k.name;
          best.blocking = bl;
        }
      }
    }
  }

  set_gemm_blocking(saved_blocking);
  set_active_micro_kernel(saved_kernel);
  best.cpu = tuning_cpu_id();
  return best;
}

}  // namespace hqr
