#include "linalg/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "linalg/micro_kernel.hpp"

namespace hqr {
namespace {

// The micro-tile shape (mr x nr) comes from the runtime-dispatched
// micro-kernel (linalg/micro_kernel.hpp): the registry picks the widest
// accumulator file the CPU supports, overridable with HQR_KERNEL_ISA.
constexpr std::size_t kAlign = 64;

// HQR_GEMM_BACKEND=naive drops every binary (benches included) onto the
// reference loops without a rebuild — the baseline side of the bench-gated
// speedup tracking.
GemmBackend initial_backend() {
  const char* env = std::getenv("HQR_GEMM_BACKEND");
  if (env != nullptr && std::strcmp(env, "naive") == 0)
    return GemmBackend::Naive;
  return GemmBackend::Packed;
}

GemmBlocking g_blocking{};
std::atomic<GemmBackend> g_backend{initial_backend()};
std::atomic<bool> g_blocking_was_set{false};

constexpr int round_up(int x, int to) { return (x + to - 1) / to * to; }

int op_rows(Trans t, ConstMatrixView a) { return t == Trans::No ? a.rows : a.cols; }
int op_cols(Trans t, ConstMatrixView a) { return t == Trans::No ? a.cols : a.rows; }

double op_at(Trans t, ConstMatrixView a, int i, int j) {
  return t == Trans::No ? a(i, j) : a(j, i);
}

std::size_t a_pack_doubles(int m, int k, const GemmBlocking& bl, int mr) {
  const int mc = std::min(round_up(m, mr), std::max(round_up(bl.mc, mr), mr));
  const int kc = std::min(k, std::max(bl.kc, 1));
  return static_cast<std::size_t>(mc) * static_cast<std::size_t>(kc);
}

std::size_t b_pack_doubles(int n, int k, const GemmBlocking& bl, int nr) {
  const int nc = std::min(round_up(n, nr), std::max(round_up(bl.nc, nr), nr));
  const int kc = std::min(k, std::max(bl.kc, 1));
  return static_cast<std::size_t>(nc) * static_cast<std::size_t>(kc);
}

// C = beta * C, specialized for beta in {0, 1}. Applying beta once up front
// lets every k-block of the packed core use pure accumulation.
void scale_c(double beta, MatrixView c) {
  if (beta == 1.0) return;
  for (int j = 0; j < c.cols; ++j) {
    double* HQR_RESTRICT cj = c.data + static_cast<std::size_t>(j) * c.ld;
    if (beta == 0.0) {
      for (int i = 0; i < c.rows; ++i) cj[i] = 0.0;
    } else {
      for (int i = 0; i < c.rows; ++i) cj[i] *= beta;
    }
  }
}

// Packs op(A)(i0:i0+mc, p0:p0+kc) into kmr-row panels: panel ir holds, for
// each l, the kmr contiguous entries op(A)(i0+ir .. i0+ir+kmr, p0+l),
// zero-padded past the fringe. Trans is resolved here, once per block.
void pack_a(Trans ta, ConstMatrixView a, int i0, int p0, int mc, int kc,
            int kmr, double* HQR_RESTRICT ap) {
  for (int ir = 0; ir < mc; ir += kmr) {
    const int mr = std::min(kmr, mc - ir);
    if (ta == Trans::No) {
      for (int l = 0; l < kc; ++l) {
        const double* HQR_RESTRICT src =
            a.data + static_cast<std::size_t>(p0 + l) * a.ld + i0 + ir;
        double* HQR_RESTRICT dst = ap + static_cast<std::size_t>(l) * kmr;
        for (int i = 0; i < mr; ++i) dst[i] = src[i];
        for (int i = mr; i < kmr; ++i) dst[i] = 0.0;
      }
    } else {
      // op(A)(i, l) = a(p0+l, i0+i): column i0+ir+i of `a` is contiguous
      // in l, so read column-wise and scatter into the panel.
      for (int i = 0; i < mr; ++i) {
        const double* HQR_RESTRICT src =
            a.data + static_cast<std::size_t>(i0 + ir + i) * a.ld + p0;
        for (int l = 0; l < kc; ++l)
          ap[static_cast<std::size_t>(l) * kmr + i] = src[l];
      }
      for (int i = mr; i < kmr; ++i)
        for (int l = 0; l < kc; ++l)
          ap[static_cast<std::size_t>(l) * kmr + i] = 0.0;
    }
    ap += static_cast<std::size_t>(kc) * kmr;
  }
}

// Packs op(B)(p0:p0+kc, j0:j0+nc) into knr-column panels: panel jr holds,
// for each l, the knr entries op(B)(p0+l, j0+jr .. j0+jr+knr), zero-padded.
void pack_b(Trans tb, ConstMatrixView b, int p0, int j0, int kc, int nc,
            int knr, double* HQR_RESTRICT bp) {
  for (int jr = 0; jr < nc; jr += knr) {
    const int nr = std::min(knr, nc - jr);
    if (tb == Trans::No) {
      // op(B)(l, j) = b(p0+l, j0+j): column j0+jr+j contiguous in l.
      for (int j = 0; j < nr; ++j) {
        const double* HQR_RESTRICT src =
            b.data + static_cast<std::size_t>(j0 + jr + j) * b.ld + p0;
        for (int l = 0; l < kc; ++l)
          bp[static_cast<std::size_t>(l) * knr + j] = src[l];
      }
      for (int j = nr; j < knr; ++j)
        for (int l = 0; l < kc; ++l)
          bp[static_cast<std::size_t>(l) * knr + j] = 0.0;
    } else {
      // op(B)(l, j) = b(j0+j, p0+l): row slice of column p0+l, contiguous
      // in j.
      for (int l = 0; l < kc; ++l) {
        const double* HQR_RESTRICT src =
            b.data + static_cast<std::size_t>(p0 + l) * b.ld + j0 + jr;
        double* HQR_RESTRICT dst = bp + static_cast<std::size_t>(l) * knr;
        for (int j = 0; j < nr; ++j) dst[j] = src[j];
        for (int j = nr; j < knr; ++j) dst[j] = 0.0;
      }
    }
    bp += static_cast<std::size_t>(kc) * knr;
  }
}

// The blocked core: C += alpha * op(A) op(B), beta already applied. The
// micro-kernel (and thus the register-tile shape) is the runtime-dispatched
// active kernel.
void packed_impl(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                 ConstMatrixView b, MatrixView c, int m, int n, int k,
                 GemmWorkspace& ws) {
  const MicroKernel& mk = active_micro_kernel();
  const int kmr = mk.mr;
  const int knr = mk.nr;
  const GemmBlocking bl = gemm_blocking();
  const int mc_max = std::max(round_up(bl.mc, kmr), kmr);
  const int kc_max = std::max(bl.kc, 1);
  const int nc_max = std::max(round_up(bl.nc, knr), knr);
  double* const ap = ws.a_pack(a_pack_doubles(m, k, bl, kmr));
  double* const bp = ws.b_pack(b_pack_doubles(n, k, bl, knr));

  for (int jc = 0; jc < n; jc += nc_max) {
    const int nc = std::min(nc_max, n - jc);
    for (int pc = 0; pc < k; pc += kc_max) {
      const int kc = std::min(kc_max, k - pc);
      pack_b(tb, b, pc, jc, kc, nc, knr, bp);
      for (int ic = 0; ic < m; ic += mc_max) {
        const int mc = std::min(mc_max, m - ic);
        pack_a(ta, a, ic, pc, mc, kc, kmr, ap);
        for (int jr = 0; jr < nc; jr += knr) {
          const int nr = std::min(knr, nc - jr);
          const double* bpanel =
              bp + static_cast<std::size_t>(jr / knr) * kc * knr;
          for (int ir = 0; ir < mc; ir += kmr) {
            const int mr = std::min(kmr, mc - ir);
            const double* apanel =
                ap + static_cast<std::size_t>(ir / kmr) * kc * kmr;
            alignas(64) double acc[kMaxMicroMR * kMaxMicroNR];
            mk.fn(kc, apanel, bpanel, acc);
            double* cb =
                c.data + static_cast<std::size_t>(jc + jr) * c.ld + ic + ir;
            if (mr == kmr && nr == knr) {
              for (int j = 0; j < knr; ++j) {
                double* HQR_RESTRICT cj =
                    cb + static_cast<std::size_t>(j) * c.ld;
                const double* HQR_RESTRICT accj = acc + j * kmr;
                for (int i = 0; i < kmr; ++i) cj[i] += alpha * accj[i];
              }
            } else {
              for (int j = 0; j < nr; ++j)
                for (int i = 0; i < mr; ++i)
                  cb[static_cast<std::size_t>(j) * c.ld + i] +=
                      alpha * acc[j * kmr + i];
            }
          }
        }
      }
    }
  }
}

// Eight doubles as one GCC vector: a zmm, two ymm or four xmm by target.
// Loads and stores go through memcpy, so operands need no alignment.
typedef double Vec8 __attribute__((vector_size(8 * sizeof(double))));
constexpr int kVecRows = 8;
// Depth of the transposed op(A) = A^T block small_impl keeps on the stack
// (16 KB): every tile up to b = 256.
constexpr int kDirectMaxK = 256;

// Direct loops for problems too small to amortize packing (b = 8 tiles,
// narrow ib panels, T-factor updates, fringe blocks). C += only; beta
// already applied. Every C element gets one fixed order:
//   op(A) = A:   c(i, j) += (alpha b(l, j)) a(i, l) over ascending l,
//                skipping b(l, j) == 0;
//   op(A) = A^T: c(i, j) += alpha s, s the chain s += a(l, i) b(l, j) over
//                ascending l from 0.
// Each whole 8-row block of C holds a column in one Vec8 across the k loop;
// under A^T its 8 columns of A are first transposed into `at`, so a C
// column is eight independent chains. Fringe rows, and A^T deeper than
// kDirectMaxK, run the same orders one row at a time; there GCC may
// compile the A^T chains as in-order sums of separately rounded products
// where the blocks fuse each multiply-add. Which rows take which loop
// depends only on the shape.
void small_impl(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                ConstMatrixView b, MatrixView c, int m, int n, int k) {
  // op(B)(l, j) = bcol(j)[l * bstride].
  const std::size_t bstride = tb == Trans::No ? 1 : b.ld;
  const auto bcol = [&](int j) {
    return b.data + (tb == Trans::No ? static_cast<std::size_t>(j) * b.ld
                                     : static_cast<std::size_t>(j));
  };
  int i0 = 0;
  if (ta == Trans::No) {
    for (; i0 + kVecRows <= m; i0 += kVecRows)
      for (int j = 0; j < n; ++j) {
        const double* HQR_RESTRICT bj = bcol(j);
        double* HQR_RESTRICT cj =
            c.data + static_cast<std::size_t>(j) * c.ld + i0;
        Vec8 acc;
        std::memcpy(&acc, cj, sizeof acc);
        for (int l = 0; l < k; ++l) {
          const double blj = bj[l * bstride];
          if (blj == 0.0) continue;
          Vec8 al;
          std::memcpy(&al, a.data + static_cast<std::size_t>(l) * a.ld + i0,
                      sizeof al);
          acc += (alpha * blj) * al;
        }
        std::memcpy(cj, &acc, sizeof acc);
      }
  } else if (k <= kDirectMaxK) {
    alignas(64) double at[kDirectMaxK * kVecRows];
    for (; i0 + kVecRows <= m; i0 += kVecRows) {
      for (int r = 0; r < kVecRows; ++r) {
        const double* HQR_RESTRICT ai =
            a.data + static_cast<std::size_t>(i0 + r) * a.ld;
        for (int l = 0; l < k; ++l) at[l * kVecRows + r] = ai[l];
      }
      for (int j = 0; j < n; ++j) {
        const double* HQR_RESTRICT bj = bcol(j);
        Vec8 s = {};
        for (int l = 0; l < k; ++l) {
          Vec8 al;
          std::memcpy(&al, at + l * kVecRows, sizeof al);
          s += al * bj[l * bstride];
        }
        double* HQR_RESTRICT cj =
            c.data + static_cast<std::size_t>(j) * c.ld + i0;
        Vec8 cv;
        std::memcpy(&cv, cj, sizeof cv);
        cv += alpha * s;
        std::memcpy(cj, &cv, sizeof cv);
      }
    }
  }
  if (i0 == m) return;
  for (int j = 0; j < n; ++j) {
    const double* HQR_RESTRICT bj = bcol(j);
    double* HQR_RESTRICT cj = c.data + static_cast<std::size_t>(j) * c.ld;
    if (ta == Trans::No) {
      for (int l = 0; l < k; ++l) {
        const double blj = bj[l * bstride];
        if (blj == 0.0) continue;
        const double f = alpha * blj;
        const double* HQR_RESTRICT al =
            a.data + static_cast<std::size_t>(l) * a.ld;
        for (int i = i0; i < m; ++i) cj[i] += f * al[i];
      }
    } else {
      for (int i = i0; i < m; ++i) {
        const double* HQR_RESTRICT ai =
            a.data + static_cast<std::size_t>(i) * a.ld;
        double s = 0.0;
        for (int l = 0; l < k; ++l) s += ai[l] * bj[l * bstride];
        cj[i] += alpha * s;
      }
    }
  }
}

void check_shapes(Trans tb, ConstMatrixView b, MatrixView c, int m, int n,
                  int k) {
  HQR_CHECK(op_rows(tb, b) == k, "gemm inner dimension mismatch");
  HQR_CHECK(c.rows == m && c.cols == n, "gemm output shape mismatch");
}

void free_doubles(double* p) { std::free(p); }

}  // namespace

void set_gemm_blocking(const GemmBlocking& blocking) {
  HQR_CHECK(blocking.mc >= 1 && blocking.kc >= 1 && blocking.nc >= 1,
            "gemm blocking parameters must be >= 1");
  g_blocking = blocking;
  g_blocking_was_set.store(true, std::memory_order_relaxed);
}

GemmBlocking gemm_blocking() { return g_blocking; }

bool gemm_blocking_was_set() {
  return g_blocking_was_set.load(std::memory_order_relaxed);
}

void set_gemm_backend(GemmBackend backend) {
  g_backend.store(backend, std::memory_order_relaxed);
}

GemmBackend gemm_backend() {
  return g_backend.load(std::memory_order_relaxed);
}

// Kernel-independent thresholds: the packed/small split must not depend on
// which micro-kernel is active, or forcing HQR_KERNEL_ISA=portable would
// change the accumulation order and break bit-identity with the SIMD path.
bool gemm_packs(int m, int n, int k) {
  return m >= 8 && n >= 4 && k >= 4 &&
         static_cast<long long>(m) * n * k >= 32768;
}

double* GemmWorkspace::AlignedBuffer::ensure(std::size_t doubles) {
  if (doubles <= capacity && data) return data.get();
  std::size_t bytes = doubles * sizeof(double);
  bytes = (bytes + kAlign - 1) / kAlign * kAlign;
  void* p = std::aligned_alloc(kAlign, bytes);
  HQR_CHECK(p != nullptr, "gemm packing buffer allocation failed");
  data = std::unique_ptr<double[], void (*)(double*)>(
      static_cast<double*>(p), &free_doubles);
  capacity = bytes / sizeof(double);
  return data.get();
}

void GemmWorkspace::reserve(int m, int n, int k) {
  HQR_CHECK(m >= 0 && n >= 0 && k >= 0, "negative dimension");
  if (m == 0 || n == 0 || k == 0) return;
  const GemmBlocking bl = gemm_blocking();
  // Size for the widest registered shape so a later kernel switch (autotune,
  // HQR_KERNEL_ISA) never forces a realloc mid-run.
  a_.ensure(a_pack_doubles(m, k, bl, kMaxMicroMR));
  b_.ensure(b_pack_doubles(n, k, bl, kMaxMicroNR));
}

void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c, GemmWorkspace& ws) {
  const int m = op_rows(ta, a);
  const int k = op_cols(ta, a);
  const int n = op_cols(tb, b);
  check_shapes(tb, b, c, m, n, k);
  if (gemm_backend() == GemmBackend::Naive) {
    gemm_naive(ta, tb, alpha, a, b, beta, c);
    return;
  }
  scale_c(beta, c);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  if (gemm_packs(m, n, k)) {
    packed_impl(ta, tb, alpha, a, b, c, m, n, k, ws);
  } else {
    small_impl(ta, tb, alpha, a, b, c, m, n, k);
  }
}

void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c) {
  thread_local GemmWorkspace tls;
  gemm(ta, tb, alpha, a, b, beta, c, tls);
}

void gemm_naive(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                ConstMatrixView b, double beta, MatrixView c) {
  const int m = op_rows(ta, a);
  const int k = op_cols(ta, a);
  const int n = op_cols(tb, b);
  check_shapes(tb, b, c, m, n, k);

  for (int j = 0; j < n; ++j) {
    double* cj = c.data + static_cast<std::size_t>(j) * c.ld;
    if (beta == 0.0) {
      for (int i = 0; i < m; ++i) cj[i] = 0.0;
    } else if (beta != 1.0) {
      for (int i = 0; i < m; ++i) cj[i] *= beta;
    }
    if (alpha == 0.0) continue;

    if (ta == Trans::No) {
      // c(:,j) += alpha * A * op(B)(:,j): accumulate column-by-column of A.
      for (int l = 0; l < k; ++l) {
        const double blj = op_at(tb, b, l, j);
        if (blj == 0.0) continue;
        const double f = alpha * blj;
        const double* al = a.data + static_cast<std::size_t>(l) * a.ld;
        for (int i = 0; i < m; ++i) cj[i] += f * al[i];
      }
    } else {
      // c(i,j) += alpha * dot(A(:,i), op(B)(:,j)).
      for (int i = 0; i < m; ++i) {
        const double* ai = a.data + static_cast<std::size_t>(i) * a.ld;
        double s = 0.0;
        for (int l = 0; l < k; ++l) s += ai[l] * op_at(tb, b, l, j);
        cj[i] += alpha * s;
      }
    }
  }
}

}  // namespace hqr
