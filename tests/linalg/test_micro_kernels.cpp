// Differential tests of every registered GEMM micro-kernel variant: each
// CPU-supported kernel is forced active and the packed core is swept over
// ragged shapes straddling its MR x NR register tile, against the naive
// reference. On FMA hardware the variants must additionally agree
// *bitwise* with the portable kernel — each output element is one fused
// multiply-add chain over k ascending regardless of MR/NR/vector length —
// which is the property that lets HQR_KERNEL_ISA=portable reproduce a SIMD
// run exactly. The six tile kernels inherit it, and a test here pins that
// too.
#include "linalg/micro_kernel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kernels/ib_kernels.hpp"
#include "linalg/gemm.hpp"
#include "linalg/random_matrix.hpp"

namespace hqr {
namespace {

// Restores the process-wide kernel/blocking so test order never matters.
class MicroKernels : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = &active_micro_kernel(); }
  void TearDown() override {
    set_active_micro_kernel(*saved_);
    set_gemm_blocking(GemmBlocking{});
  }
  const MicroKernel* saved_ = nullptr;
};

TEST_F(MicroKernels, RegistryShapeInvariants) {
  const std::vector<MicroKernel>& reg = micro_kernel_registry();
  ASSERT_FALSE(reg.empty());
  // The portable kernel leads the registry: it is the universal fallback.
  EXPECT_STREQ(reg.front().isa, "portable");
  for (const MicroKernel& k : reg) {
    EXPECT_NE(k.fn, nullptr) << k.name;
    EXPECT_GE(k.mr, 1) << k.name;
    EXPECT_GE(k.nr, 1) << k.name;
    // The packed core sizes fringe buffers with these bounds; a kernel
    // exceeding them would scribble past the accumulator block.
    EXPECT_LE(k.mr, kMaxMicroMR) << k.name;
    EXPECT_LE(k.nr, kMaxMicroNR) << k.name;
  }
  EXPECT_TRUE(micro_kernel_isa_supported("portable"));
}

TEST_F(MicroKernels, UnknownNameIsRejectedAndActiveUnchanged) {
  const MicroKernel& before = active_micro_kernel();
  EXPECT_FALSE(set_active_micro_kernel("no-such-kernel"));
  EXPECT_FALSE(set_active_micro_kernel(""));
  EXPECT_STREQ(active_micro_kernel().name, before.name);
}

TEST_F(MicroKernels, FindByTierReturnsLastOfTier) {
  // The tier pick is the last registry entry of that ISA (ascending
  // preference within a tier).
  const std::vector<MicroKernel>& reg = micro_kernel_registry();
  for (const char* tier : {"portable", "avx2", "avx512"}) {
    const MicroKernel* best = nullptr;
    for (const MicroKernel& k : reg)
      if (std::string(k.isa) == tier) best = &k;
    const MicroKernel* found = find_micro_kernel(tier);
    if (best == nullptr) {
      EXPECT_EQ(found, nullptr) << tier;
    } else {
      ASSERT_NE(found, nullptr) << tier;
      EXPECT_STREQ(found->name, best->name);
    }
  }
  // Exact names resolve to themselves.
  for (const MicroKernel& k : reg) {
    const MicroKernel* found = find_micro_kernel(k.name);
    ASSERT_NE(found, nullptr) << k.name;
    EXPECT_STREQ(found->name, k.name);
  }
}

// Packed and naive accumulate in different orders: rounding-level tolerance.
double tol(int k) { return 1e-14 * static_cast<double>(k + 1) + 1e-14; }

// Shapes straddling the register tile and the (shrunken) cache blocks of
// the kernel under test: below/at/above mr and nr, plus fringe+block
// combinations. k values cross the kc panel.
void sweep_kernel_vs_naive(const MicroKernel& k) {
  ASSERT_TRUE(set_active_micro_kernel(k.name));
  // Two micro-rows / micro-cols per cache block so the multi-block loops
  // run with enumerable matrices.
  set_gemm_blocking({2 * k.mr, 24, 3 * k.nr});
  const std::vector<int> ms = {1, k.mr - 1, k.mr, k.mr + 1, 2 * k.mr + 3};
  const std::vector<int> ns = {1, k.nr - 1, k.nr, k.nr + 1, 3 * k.nr + 2};
  const std::vector<int> ks = {8, 23, 24, 25, 50};
  Rng rng(987);
  GemmWorkspace ws;
  for (int m : ms) {
    for (int n : ns) {
      for (int kk : ks) {
        if (m <= 0 || n <= 0) continue;
        Matrix a = random_gaussian(m, kk, rng);
        Matrix b = random_gaussian(kk, n, rng);
        Matrix c0 = random_gaussian(m, n, rng);
        Matrix c_packed = c0;
        Matrix c_naive = c0;
        gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 1.0,
             c_packed.view(), ws);
        gemm_naive(Trans::No, Trans::No, 1.0, a.view(), b.view(), 1.0,
                   c_naive.view());
        EXPECT_LE(max_abs_diff(c_packed.view(), c_naive.view()), tol(kk))
            << k.name << " m=" << m << " n=" << n << " k=" << kk;
      }
    }
  }
}

TEST_F(MicroKernels, EveryRegisteredVariantMatchesNaive) {
  int tested = 0;
  for (const MicroKernel& k : micro_kernel_registry()) {
    if (!micro_kernel_isa_supported(k.isa)) {
      // Not executable on this CPU (e.g. avx512 kernels on an avx2-only
      // machine); the scalar-fallback CI job still covers portable.
      continue;
    }
    SCOPED_TRACE(k.name);
    sweep_kernel_vs_naive(k);
    ++tested;
  }
  EXPECT_GE(tested, 1);  // portable always runs
}

#ifdef __FMA__
TEST_F(MicroKernels, SupportedVariantsAreBitIdenticalToPortable) {
  // The determinism contract: with identical blocking, every kernel forms
  // each C element as the same ascending-k FMA chain, so results match to
  // the last bit across MR/NR/vector-length. This is what makes
  // HQR_KERNEL_ISA=portable a bit-exact reproduction of a SIMD run.
  set_gemm_blocking({48, 32, 36});
  const std::vector<std::array<int, 3>> shapes = {
      {61, 29, 70}, {17, 9, 33}, {96, 48, 64}, {25, 25, 25}};
  Rng rng(24601);
  for (const auto& s : shapes) {
    const int m = s[0], n = s[1], kk = s[2];
    Matrix a = random_gaussian(m, kk, rng);
    Matrix b = random_gaussian(kk, n, rng);
    Matrix c0 = random_gaussian(m, n, rng);

    ASSERT_TRUE(set_active_micro_kernel("portable"));
    Matrix c_ref = c0;
    {
      GemmWorkspace ws;
      gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 1.0, c_ref.view(),
           ws);
    }
    for (const MicroKernel& k : micro_kernel_registry()) {
      if (!micro_kernel_isa_supported(k.isa)) continue;
      ASSERT_TRUE(set_active_micro_kernel(k.name));
      Matrix c = c0;
      GemmWorkspace ws;
      gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 1.0, c.view(), ws);
      EXPECT_EQ(max_abs_diff(c.view(), c_ref.view()), 0.0)
          << k.name << " m=" << m << " n=" << n << " k=" << kk;
    }
  }
}

// Outputs of all six inner-blocked kernels at (b, ib) on fixed inputs: the
// factors and T of GEQRT, TSQRT and TTQRT, and what UNMQR, TSMQR and TTMQR
// make of fixed C tiles under Q^T and Q.
std::vector<Matrix> run_tile_kernels(int b, int ib) {
  Rng rng(8675309);
  TileWorkspace ws(b);
  const Matrix a = random_gaussian(b, b, rng);
  const Matrix a2 = random_gaussian(b, b, rng);
  const Matrix c1 = random_gaussian(b, b, rng);
  const Matrix c2 = random_gaussian(b, b, rng);
  std::vector<Matrix> out;

  Matrix v = a, tg(ib, b);
  geqrt_ib(v.view(), tg.view(), ib, ws);
  Matrix r1 = v, v2 = a2, ts(ib, b);
  tsqrt_ib(r1.view(), v2.view(), ts.view(), ib, ws);
  Matrix q1 = r1, q2 = v, tt(ib, b);  // R on R (v's upper triangle is R)
  ttqrt_ib(q1.view(), q2.view(), tt.view(), ib, ws);
  out.insert(out.end(), {v, tg, r1, v2, ts, q1, q2, tt});

  for (Trans trans : {Trans::Yes, Trans::No}) {
    Matrix u = c1;
    unmqr_ib(v.view(), tg.view(), ib, trans, u.view(), ws);
    Matrix s1 = c1, s2 = c2;
    tsmqr_ib(s1.view(), s2.view(), v2.view(), ts.view(), ib, trans, ws);
    Matrix t1 = c1, t2 = c2;
    ttmqr_ib(t1.view(), t2.view(), q2.view(), tt.view(), ib, trans, ws);
    out.insert(out.end(), {u, s1, s2, t1, t2});
  }
  return out;
}

TEST_F(MicroKernels, TileKernelsBitIdenticalToPortable) {
  // The same contract one layer up: the panel loops, dots and norms do not
  // depend on the micro-kernel, and every product the kernels hand to GEMM
  // (the dense-triangle multiplies included) is bit-identical across
  // variants, so the six kernels are too. (8, 8), the serve batches' tiles,
  // keeps every product on the direct GEMM path and the eight-lane triangle
  // loops; (64, 16) keeps the triangle multiplies on those loops; (32, 32),
  // the serve requests' tiles, and (200, 32) send them through GEMM.
  set_gemm_blocking(GemmBlocking{});
  for (const auto& [b, ib] : {std::pair{8, 8}, std::pair{32, 32},
                              std::pair{64, 16}, std::pair{200, 32}}) {
    ASSERT_TRUE(set_active_micro_kernel("portable"));
    const std::vector<Matrix> ref = run_tile_kernels(b, ib);
    for (const MicroKernel& k : micro_kernel_registry()) {
      if (!micro_kernel_isa_supported(k.isa)) continue;
      ASSERT_TRUE(set_active_micro_kernel(k.name));
      const std::vector<Matrix> got = run_tile_kernels(b, ib);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].storage(), ref[i].storage())
            << k.name << " b=" << b << " ib=" << ib << " output " << i;
    }
  }
}
#endif  // __FMA__

}  // namespace
}  // namespace hqr
