#include "linalg/micro_kernel.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"

namespace hqr {
namespace detail {

void mk_portable_8x6(int kc, const double* ap, const double* bp, double* acc);
#if defined(HQR_HAVE_AVX2_KERNELS)
void mk_avx2_8x6(int kc, const double* ap, const double* bp, double* acc);
void mk_avx2_12x4(int kc, const double* ap, const double* bp, double* acc);
#endif
#if defined(HQR_HAVE_AVX512_KERNELS)
void mk_avx512_16x8(int kc, const double* ap, const double* bp, double* acc);
void mk_avx512_24x8(int kc, const double* ap, const double* bp, double* acc);
#endif

}  // namespace detail

namespace {

#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
bool cpu_has_avx2_fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
bool cpu_has_avx512f() { return __builtin_cpu_supports("avx512f"); }
#else
bool cpu_has_avx2_fma() { return false; }
bool cpu_has_avx512f() { return false; }
#endif

std::vector<MicroKernel> build_registry() {
  std::vector<MicroKernel> r;
  r.push_back({"portable-8x6", "portable", 8, 6, &detail::mk_portable_8x6});
#if defined(HQR_HAVE_AVX2_KERNELS)
  r.push_back({"avx2-12x4", "avx2", 12, 4, &detail::mk_avx2_12x4});
  r.push_back({"avx2-8x6", "avx2", 8, 6, &detail::mk_avx2_8x6});
#endif
#if defined(HQR_HAVE_AVX512_KERNELS)
  r.push_back({"avx512-24x8", "avx512", 24, 8, &detail::mk_avx512_24x8});
  r.push_back({"avx512-16x8", "avx512", 16, 8, &detail::mk_avx512_16x8});
#endif
  for (const MicroKernel& k : r)
    HQR_CHECK(k.mr <= kMaxMicroMR && k.nr <= kMaxMicroNR,
              "micro-kernel " << k.name << " exceeds kMaxMicro bounds");
  return r;
}

std::atomic<const MicroKernel*>& active_slot() {
  static std::atomic<const MicroKernel*> slot{nullptr};
  return slot;
}

// Best supported kernel: the last registry entry whose ISA the CPU runs
// (registry order encodes preference).
const MicroKernel& best_supported() {
  const std::vector<MicroKernel>& reg = micro_kernel_registry();
  const MicroKernel* best = &reg.front();
  for (const MicroKernel& k : reg)
    if (micro_kernel_isa_supported(k.isa)) best = &k;
  return *best;
}

const MicroKernel& initial_kernel() {
  const char* env = std::getenv("HQR_KERNEL_ISA");
  if (env != nullptr && env[0] != '\0') {
    const MicroKernel* k = find_micro_kernel(env);
    if (k == nullptr) {
      std::fprintf(stderr,
                   "hqr: HQR_KERNEL_ISA=%s names no compiled-in kernel; "
                   "using %s\n",
                   env, best_supported().name);
    } else if (!micro_kernel_isa_supported(k->isa)) {
      std::fprintf(stderr,
                   "hqr: HQR_KERNEL_ISA=%s is not supported by this CPU; "
                   "using %s\n",
                   env, best_supported().name);
    } else {
      return *k;
    }
  }
  return best_supported();
}

std::atomic<bool> g_kernel_was_set{false};

}  // namespace

const std::vector<MicroKernel>& micro_kernel_registry() {
  static const std::vector<MicroKernel> registry = build_registry();
  return registry;
}

bool micro_kernel_isa_supported(const std::string& isa) {
  if (isa == "portable") return true;
  if (isa == "avx2") return cpu_has_avx2_fma();
  if (isa == "avx512") return cpu_has_avx512f();
  return false;
}

const MicroKernel* find_micro_kernel(const std::string& name_or_isa) {
  const std::vector<MicroKernel>& reg = micro_kernel_registry();
  const MicroKernel* tier_pick = nullptr;
  for (const MicroKernel& k : reg) {
    if (name_or_isa == k.name) return &k;
    if (name_or_isa == k.isa) tier_pick = &k;  // last of tier wins
  }
  return tier_pick;
}

const MicroKernel& active_micro_kernel() {
  const MicroKernel* k = active_slot().load(std::memory_order_acquire);
  if (k == nullptr) {
    // Benign race: initial_kernel() is deterministic, so concurrent first
    // calls store the same pointer.
    k = &initial_kernel();
    active_slot().store(k, std::memory_order_release);
  }
  return *k;
}

bool set_active_micro_kernel(const std::string& name_or_isa) {
  const MicroKernel* k = find_micro_kernel(name_or_isa);
  if (k == nullptr || !micro_kernel_isa_supported(k->isa)) return false;
  active_slot().store(k, std::memory_order_release);
  g_kernel_was_set.store(true, std::memory_order_relaxed);
  return true;
}

void set_active_micro_kernel(const MicroKernel& kernel) {
  active_slot().store(&kernel, std::memory_order_release);
  g_kernel_was_set.store(true, std::memory_order_relaxed);
}

bool micro_kernel_was_set() {
  if (g_kernel_was_set.load(std::memory_order_relaxed)) return true;
  const char* env = std::getenv("HQR_KERNEL_ISA");
  return env != nullptr && env[0] != '\0';
}

}  // namespace hqr
