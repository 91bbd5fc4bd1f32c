// Ablation: inner blocking (ib) of the tile kernels. Each panel of ib
// columns carries its own ib x ib T, so an MQR application spends O(ib b^2)
// on T multiplies on top of the 4 b^3 GEMM flops. This bench measures the
// real kernel rates across ib — the from-scratch analogue of the PLASMA ib
// tuning that underlies the paper's 7.21 / 6.28 GFlop/s kernel
// measurements.
#include <functional>
#include <iostream>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "kernels/ib_kernels.hpp"
#include "kernels/weights.hpp"
#include "linalg/random_matrix.hpp"

using namespace hqr;

namespace {

double time_loop(int reps, const std::function<void()>& fn) {
  Stopwatch sw;
  for (int r = 0; r < reps; ++r) fn();
  return sw.seconds() / reps;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv, {{"b", "128"}, {"reps", "5"}, {"csv", ""}});
  const int b = static_cast<int>(cli.integer("b"));
  const int reps = static_cast<int>(cli.integer("reps"));

  Rng rng(3);
  TileWorkspace ws(b);
  Matrix t(b, b);

  TextTable table({"kernel", "ib", "ms", "GFlop/s"});
  for (int ib : {8, 16, 32}) {
    if (ib > b) continue;
    // TSMQR: the dominant update kernel.
    {
      Matrix a1 = random_gaussian(b, b, rng);
      Matrix a2 = random_gaussian(b, b, rng);
      tsqrt_ib(a1.view(), a2.view(), t.view(), ib, ws);
      Matrix c1 = random_gaussian(b, b, rng);
      Matrix c2 = random_gaussian(b, b, rng);
      const double secs = time_loop(reps, [&] {
        tsmqr_ib(c1.view(), c2.view(), a2.view(), t.view(), ib, Trans::Yes,
                 ws);
      });
      table.row()
          .add("TSMQR")
          .add(ib)
          .add(secs * 1e3, 4)
          .add(kernel_flops(KernelType::TSMQR, b) / secs / 1e9, 4);
    }
    // TTMQR: the TT update kernel.
    {
      Matrix a1 = random_gaussian(b, b, rng);
      Matrix a2 = random_gaussian(b, b, rng);
      ttqrt_ib(a1.view(), a2.view(), t.view(), ib, ws);
      Matrix c1 = random_gaussian(b, b, rng);
      Matrix c2 = random_gaussian(b, b, rng);
      const double secs = time_loop(reps, [&] {
        ttmqr_ib(c1.view(), c2.view(), a2.view(), t.view(), ib, Trans::Yes,
                 ws);
      });
      table.row()
          .add("TTMQR")
          .add(ib)
          .add(secs * 1e3, 4)
          .add(kernel_flops(KernelType::TTMQR, b) / secs / 1e9, 4);
    }
  }
  bench::emit(table, cli, "Inner-blocking ablation (real kernels)");
  std::cout << "\nNote: GFlop/s uses the paper's nominal flop count "
               "(weight * b^3 / 3); the T multiplies ib adds on top are "
               "not counted.\n";
  return 0;
}
