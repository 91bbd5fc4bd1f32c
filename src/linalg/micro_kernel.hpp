// Runtime-dispatched GEMM micro-kernels.
//
// The packed GEMM core (linalg/gemm.cpp) accumulates register blocks of
// shape MR x NR over packed panels. Different ISAs want different shapes:
// the portable GCC-vector 8x6 kernel works everywhere, but AVX2's 16 ymm
// registers and AVX-512's 32 zmm registers support wider accumulator files
// (more independent FMA chains, which is what hides FMA latency). Each
// variant lives in its own translation unit compiled with exactly the ISA
// flags it needs, so a baseline (-DHQR_NATIVE_ARCH=OFF) build still carries
// the SIMD kernels and selects them by cpuid at runtime.
//
// Selection order at startup: the HQR_KERNEL_ISA environment variable (an
// ISA tier like "avx2" or an exact kernel name like "avx512-24x8"), then
// the per-host tuning cache (linalg/kernel_tuning.hpp), then the best
// supported tier. All kernels accumulate each output element as one fused
// multiply-add chain over k in ascending order, so — given identical
// blocking — every variant produces bit-identical GEMM results on FMA
// hardware (the differential tests pin this).
#pragma once

#include <string>
#include <vector>

namespace hqr {

// acc (mr x nr, column-major, leading dimension mr, 64-byte aligned) =
// sum_l ap(:, l) * bp(l, :) over the packed panels (ap holds mr-row
// l-slices, bp holds nr-column l-slices, both zero-padded to shape).
using MicroKernelFn = void (*)(int kc, const double* ap, const double* bp,
                               double* acc);

struct MicroKernel {
  const char* name;  // e.g. "avx512-24x8"
  const char* isa;   // "portable" | "avx2" | "avx512"
  int mr;
  int nr;
  MicroKernelFn fn;
};

// Upper bounds over every registered shape: the packed core sizes its
// accumulator block and fringe handling with these.
constexpr int kMaxMicroMR = 24;
constexpr int kMaxMicroNR = 8;

// Every compiled-in variant, portable first, then ascending ISA tiers in
// ascending preference within a tier (the default pick for a tier is its
// last supported entry).
const std::vector<MicroKernel>& micro_kernel_registry();

// True when the running CPU can execute kernels of this tier ("portable"
// is always true; "avx2" requires AVX2+FMA, "avx512" requires AVX-512F).
bool micro_kernel_isa_supported(const std::string& isa);

// The kernel the packed core currently dispatches to. First call resolves
// HQR_KERNEL_ISA / best-supported as described above.
const MicroKernel& active_micro_kernel();

// Forces a kernel by exact name or ISA tier. Returns false (active kernel
// unchanged) when the name is unknown or the CPU cannot run it.
bool set_active_micro_kernel(const std::string& name_or_isa);
void set_active_micro_kernel(const MicroKernel& kernel);

// True once a kernel has been set explicitly (setter or HQR_KERNEL_ISA);
// the lazy tuning-cache hook checks this so a deliberate choice made before
// the first TileWorkspace is never clobbered.
bool micro_kernel_was_set();

// Looks up a kernel by exact name or ISA tier (best of tier); nullptr when
// unknown. Does not check CPU support.
const MicroKernel* find_micro_kernel(const std::string& name_or_isa);

}  // namespace hqr
