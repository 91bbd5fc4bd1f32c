// Least-squares polynomial fitting on a tall-and-skinny Vandermonde system —
// the workload class the paper's tall-skinny experiments motivate. Solves
// min ||A x - y|| with the tile QR (hierarchical greedy trees) and compares
// against the blocked Householder reference.
//
//   ./least_squares_fitting [--samples=4000] [--degree=9] [--noise=0.01]
#include <cmath>
#include <iostream>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/factorization.hpp"
#include "linalg/norms.hpp"
#include "linalg/ref_qr.hpp"
#include "trees/hqr_tree.hpp"

using namespace hqr;

int main(int argc, char** argv) {
  Cli cli(argc, argv, {{"samples", "4000"},
                       {"degree", "9"},
                       {"noise", "0.01"},
                       {"b", "32"},
                       {"seed", "7"}});
  const int m = static_cast<int>(cli.integer("samples"));
  const int deg = static_cast<int>(cli.integer("degree"));
  const int n = deg + 1;
  const double noise = cli.real("noise");
  const int b = static_cast<int>(cli.integer("b"));

  // Planted polynomial, sampled on [-1, 1] with noise.
  Rng rng(static_cast<std::uint64_t>(cli.integer("seed")));
  Matrix coeff(n, 1);
  for (int j = 0; j < n; ++j) coeff(j, 0) = rng.uniform(-2.0, 2.0);

  Matrix a(m, n);
  Matrix y(m, 1);
  for (int i = 0; i < m; ++i) {
    const double x = -1.0 + 2.0 * i / (m - 1);
    double pw = 1.0, val = 0.0;
    for (int j = 0; j < n; ++j) {
      a(i, j) = pw;
      val += coeff(j, 0) * pw;
      pw *= x;
    }
    y(i, 0) = val + noise * rng.gaussian();
  }

  // Tall-and-skinny: use a many-domain hierarchical tree (all-TT greedy),
  // the configuration class the paper recommends for this shape.
  const int mt = TiledMatrix::tile_count(m, b);
  const int nt = TiledMatrix::tile_count(n, b);
  HqrConfig cfg{8, 1, TreeKind::Greedy, TreeKind::Greedy, true};
  auto list = hqr_elimination_list(mt, nt, cfg);

  Matrix x_tile = tile_least_squares(a, y, b, list);
  Matrix x_ref = least_squares(a, y);

  std::cout << "Vandermonde system: " << m << " x " << n << " (" << mt
            << " x " << nt << " tiles)\n";
  std::cout << "deg  planted      tile-QR      reference\n";
  double max_err = 0.0;
  for (int j = 0; j < n; ++j) {
    std::printf("%3d  %+.6f  %+.6f  %+.6f\n", j, coeff(j, 0), x_tile(j, 0),
                x_ref(j, 0));
    max_err = std::max(max_err, std::abs(x_tile(j, 0) - x_ref(j, 0)));
  }
  std::cout << "max |tile - reference| = " << max_err << "\n";

  // Residual of the fit.
  Matrix r = y;
  gemm(Trans::No, Trans::No, -1.0, a.view(), x_tile.view(), 1.0, r.view());
  std::cout << "fit residual ||Ax - y||_2 = " << frobenius_norm(r.view())
            << " (noise level " << noise * std::sqrt(m) << ")\n";
  const bool ok = max_err < 1e-8;
  std::cout << (ok ? "OK: tile solver agrees with the reference\n"
                   : "FAILURE: solvers disagree\n");
  return ok ? 0 : 1;
}
