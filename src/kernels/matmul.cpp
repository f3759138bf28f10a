#include "kernels/matmul.hpp"

#include <algorithm>
#include <cstring>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "common/parallel.hpp"
#include "kernels/madd.hpp"

namespace pooch::kernels {

namespace detail {

namespace {

// Blocking parameters (Goto & van de Geijn, TOMS 2008). The MR x NR = 8 x
// 32 tile keeps 16 zmm accumulators live across the k loop: enough
// independent FMA chains to cover FMA latency on both FMA ports. A KC x
// NR packed B micro-panel (32 KiB) stays in L1 while the MR-tall A
// micro-panels of one MC x KC block stream past it from L2; the KC x NC
// packed B block sits in L2 too.
constexpr std::int64_t kMR = 8;
constexpr std::int64_t kNR = 32;
constexpr std::int64_t kKC = 256;
constexpr std::int64_t kNC = 256;  // multiple of kNR
constexpr std::int64_t kMC = 64;   // multiple of kMR

std::int64_t round_up(std::int64_t x, std::int64_t to) {
  return (x + to - 1) / to * to;
}

// Column c of a non-transposed operand starts at this row-0 offset...
std::int64_t col_offset(const Operand& o, std::int64_t c) {
  return o.seg > 0 ? (c / o.seg) * o.seg_stride + c % o.seg : c;
}

// ...and runs contiguously for this many columns (at most `len`).
std::int64_t run_length(const Operand& o, std::int64_t c, std::int64_t len) {
  return o.seg > 0 ? std::min(len, o.seg - c % o.seg) : len;
}

// Columns [c0, c0 + len) of a non-transposed operand (len <= KC) as
// contiguous runs: run r holds count[r] columns from c0 + first[r] on,
// starting at row-0 offset offset[r]. Of a transposed operand the same
// describes rows [c0, c0 + len): the columns of the stored matrix.
struct ColumnRuns {
  std::int64_t first[kKC], offset[kKC], count[kKC];
  int size = 0;

  ColumnRuns(const Operand& o, std::int64_t c0, std::int64_t len) {
    for (std::int64_t c = 0; c < len; ++size) {
      first[size] = c;
      offset[size] = col_offset(o, c0 + c);
      count[size] = run_length(o, c0 + c, len - c);
      c += count[size];
    }
  }
};

// Pack B(k0:k0+kc, j0:j0+nc) into NR-wide column panels:
// bp[jb][p][jr] with zero fill past nc.
void pack_b(const GemmShape& g, std::int64_t k0, std::int64_t kc,
            std::int64_t j0, std::int64_t nc, float* bp) {
  const Operand& lb = g.lb;
  // Rows k0..k0+kc of a transposed B as runs of every stored row.
  const ColumnRuns k_runs(lb, k0, lb.trans ? kc : 0);
  for (std::int64_t jb = 0; jb * kNR < nc; ++jb) {
    float* panel = bp + jb * kc * kNR;
    const std::int64_t jj = j0 + jb * kNR;
    const std::int64_t jw = std::min(kNR, nc - jb * kNR);
    if (lb.trans) {
      // Column j of B is a stored row, contiguous within each run.
      for (std::int64_t jr = 0; jr < jw; ++jr) {
        const float* row = g.b + (jj + jr) * lb.ld;
        for (int r = 0; r < k_runs.size; ++r) {
          const float* src = row + k_runs.offset[r];
          float* dst = panel + k_runs.first[r] * kNR + jr;
          for (std::int64_t q = 0; q < k_runs.count[r]; ++q) {
            dst[q * kNR] = src[q];
          }
        }
      }
    } else {
      // Rows of B are contiguous within each column run: copy run by run.
      const ColumnRuns runs(lb, jj, jw);
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* row = g.b + (k0 + p) * lb.ld;
        for (int r = 0; r < runs.size; ++r) {
          std::memcpy(panel + p * kNR + runs.first[r], row + runs.offset[r],
                      static_cast<std::size_t>(runs.count[r]) * sizeof(float));
        }
      }
    }
    if (jw < kNR) {
      for (std::int64_t p = 0; p < kc; ++p) {
        std::fill(panel + p * kNR + jw, panel + (p + 1) * kNR, 0.0f);
      }
    }
  }
}

// Pack A(i0:i0+mc, k0:k0+kc) into MR-tall row panels:
// ap[ib][p][ir] with zero fill past mc.
void pack_a(const GemmShape& g, std::int64_t i0, std::int64_t mc,
            std::int64_t k0, std::int64_t kc, float* ap) {
  const Operand& la = g.la;
  // Column runs of a non-transposed A, shared by every row panel.
  const ColumnRuns runs(la, k0, la.trans ? 0 : kc);
  for (std::int64_t ib = 0; ib * kMR < mc; ++ib) {
    float* panel = ap + ib * kc * kMR;
    const std::int64_t ii = i0 + ib * kMR;
    const std::int64_t iw = std::min(kMR, mc - ib * kMR);
    if (la.trans) {
      // Column p of A is a contiguous stored row.
      for (std::int64_t p = 0; p < kc; ++p) {
        std::memcpy(panel + p * kMR, g.a + (k0 + p) * la.ld + ii,
                    static_cast<std::size_t>(iw) * sizeof(float));
      }
    } else {
      for (std::int64_t ir = 0; ir < iw; ++ir) {
        const float* row = g.a + (ii + ir) * la.ld;
        for (int r = 0; r < runs.size; ++r) {
          const float* src = row + runs.offset[r];
          float* dst = panel + runs.first[r] * kMR + ir;
          for (std::int64_t q = 0; q < runs.count[r]; ++q) {
            dst[q * kMR] = src[q];
          }
        }
      }
    }
    if (iw < kMR) {
      for (std::int64_t p = 0; p < kc; ++p) {
        std::fill(panel + p * kMR + iw, panel + (p + 1) * kMR, 0.0f);
      }
    }
  }
}

// The MR x NR micro-kernel: C(0:mr, 0:nr) (+)= A * Bp over kc steps.
// Each accumulator starts from C (or zero) and takes one fused
// multiply-add per p in ascending order, the madd chain of the scalar
// references. Edge tiles (mr < MR, nr < NR) run the same arithmetic on
// zero-padded panels and only touch the valid part of C.
#if defined(__AVX512F__)

__mmask16 lane_mask(std::int64_t lanes) {
  if (lanes <= 0) return 0;
  if (lanes >= 16) return 0xFFFF;
  return static_cast<__mmask16>((1u << lanes) - 1u);
}

void micro_tile(const float* ap, const float* bp, std::int64_t kc, float* c,
                std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                bool zero_init) {
  const __mmask16 m0 = lane_mask(nr);
  const __mmask16 m1 = lane_mask(nr - 16);
  __m512 lo[kMR], hi[kMR];
#pragma GCC unroll 8
  for (int i = 0; i < kMR; ++i) {
    lo[i] = _mm512_setzero_ps();
    hi[i] = _mm512_setzero_ps();
    if (!zero_init && i < mr) {
      lo[i] = _mm512_maskz_loadu_ps(m0, c + i * ldc);
      if (m1) hi[i] = _mm512_maskz_loadu_ps(m1, c + i * ldc + 16);
    }
  }
  for (std::int64_t p = 0; p < kc; ++p) {
    const __m512 b0 = _mm512_loadu_ps(bp);
    const __m512 b1 = _mm512_loadu_ps(bp + 16);
#pragma GCC unroll 8
    for (int i = 0; i < kMR; ++i) {
      const __m512 av = _mm512_set1_ps(ap[i]);
      lo[i] = _mm512_fmadd_ps(av, b0, lo[i]);
      hi[i] = _mm512_fmadd_ps(av, b1, hi[i]);
    }
    ap += kMR;
    bp += kNR;
  }
#pragma GCC unroll 8
  for (int i = 0; i < kMR; ++i) {
    if (i < mr) {
      _mm512_mask_storeu_ps(c + i * ldc, m0, lo[i]);
      if (m1) _mm512_mask_storeu_ps(c + i * ldc + 16, m1, hi[i]);
    }
  }
}

#else  // portable fallback

void micro_tile(const float* ap, const float* bp, std::int64_t kc, float* c,
                std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                bool zero_init) {
  float acc[kMR][kNR];
  for (std::int64_t ir = 0; ir < kMR; ++ir) {
    for (std::int64_t jr = 0; jr < kNR; ++jr) {
      acc[ir][jr] = (!zero_init && ir < mr && jr < nr) ? c[ir * ldc + jr]
                                                       : 0.0f;
    }
  }
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* brow = bp + p * kNR;
    const float* acol = ap + p * kMR;
    for (std::int64_t ir = 0; ir < kMR; ++ir) {
      const float av = acol[ir];
      for (std::int64_t jr = 0; jr < kNR; ++jr) {
        acc[ir][jr] = madd(av, brow[jr], acc[ir][jr]);
      }
    }
  }
  for (std::int64_t ir = 0; ir < mr; ++ir) {
    for (std::int64_t jr = 0; jr < nr; ++jr) c[ir * ldc + jr] = acc[ir][jr];
  }
}

#endif

// One C tile at (i, j): runs kernel(c, ldc) on it. A tile whose columns
// cross a segment boundary of a segmented C is staged through a
// contiguous buffer; the arithmetic is the same.
template <typename Kernel>
void c_tile(const GemmShape& g, std::int64_t i, std::int64_t j,
            std::int64_t mr, std::int64_t nr, bool zero_init,
            Kernel kernel) {
  const Operand& lc = g.lc;
  float* c = g.c + i * lc.ld;
  if (run_length(lc, j, nr) == nr) {
    kernel(c + col_offset(lc, j), lc.ld);
    return;
  }
  std::int64_t off[kNR];
  for (std::int64_t jr = 0, q = j / lc.seg, r = j % lc.seg; jr < nr; ++jr) {
    off[jr] = q * lc.seg_stride + r;
    if (++r == lc.seg) {
      r = 0;
      ++q;
    }
  }
  alignas(64) float tile[kMR * kNR];
  if (!zero_init) {
    for (std::int64_t ir = 0; ir < mr; ++ir) {
      for (std::int64_t jr = 0; jr < nr; ++jr) {
        tile[ir * kNR + jr] = c[ir * lc.ld + off[jr]];
      }
    }
  }
  kernel(tile, kNR);
  for (std::int64_t ir = 0; ir < mr; ++ir) {
    for (std::int64_t jr = 0; jr < nr; ++jr) {
      c[ir * lc.ld + off[jr]] = tile[ir * kNR + jr];
    }
  }
}

// Packing scratch for one worker computing `rows` rows of C.
std::size_t scratch_floats(const GemmShape& g, std::int64_t rows) {
  const std::int64_t kc = std::min(g.k, kKC);
  return static_cast<std::size_t>(
      kc * (round_up(std::min(g.n, kNC), kNR) +
            round_up(std::min(rows, kMC), kMR)));
}

// The blocked GEMM for output rows [r0, r1) on caller-provided scratch.
// Thread-safe across disjoint row ranges with distinct scratch.
void gemm_rows(const GemmShape& g, std::int64_t r0, std::int64_t r1,
               float* scratch) {
  float* bp = scratch;
  float* ap = scratch + std::min(g.k, kKC) * round_up(std::min(g.n, kNC), kNR);
  for (std::int64_t jc = 0; jc < g.n; jc += kNC) {
    const std::int64_t nc = std::min(kNC, g.n - jc);
    for (std::int64_t pc = 0; pc < g.k; pc += kKC) {
      const std::int64_t kc = std::min(kKC, g.k - pc);
      pack_b(g, pc, kc, jc, nc, bp);
      // beta=0 store path: the first k panel writes C outright instead
      // of memset-then-accumulate; later panels reload and continue the
      // ascending-k chain.
      const bool zero_init = g.overwrite && pc == 0;
      for (std::int64_t ic = r0; ic < r1; ic += kMC) {
        const std::int64_t mc = std::min(kMC, r1 - ic);
        pack_a(g, ic, mc, pc, kc, ap);
        for (std::int64_t jb = 0; jb * kNR < nc; ++jb) {
          const std::int64_t nr = std::min(kNR, nc - jb * kNR);
          const float* bpanel = bp + jb * kc * kNR;
          for (std::int64_t ib = 0; ib * kMR < mc; ++ib) {
            const std::int64_t mr = std::min(kMR, mc - ib * kMR);
            const float* apanel = ap + ib * kc * kMR;
            c_tile(g, ic + ib * kMR, jc + jb * kNR, mr, nr, zero_init,
                   [&](float* c, std::int64_t ldc) {
                     micro_tile(apanel, bpanel, kc, c, ldc, mr, nr,
                                zero_init);
                   });
          }
        }
      }
    }
  }
}

}  // namespace

// Fan MR-row blocks of C out over the context's pool. Each block packs
// its own panels; rows are independent outputs, so any partition yields
// bit-identical C.
void gemm(const GemmShape& g, KernelContext& ctx) {
  if (g.m <= 0 || g.n <= 0) return;
  if (g.k <= 0) {
    if (!g.overwrite) return;
    for (std::int64_t i = 0; i < g.m; ++i) {
      for (std::int64_t j = 0; j < g.n;) {
        const std::int64_t len = run_length(g.lc, j, g.n - j);
        std::fill_n(g.c + i * g.lc.ld + col_offset(g.lc, j), len, 0.0f);
        j += len;
      }
    }
    return;
  }
  // Parallelism only pays above a few million FLOPs; tiny GEMMs (the
  // classifier-head shapes) stay inline.
  const double flops = 2.0 * static_cast<double>(g.m) *
                       static_cast<double>(g.k) * static_cast<double>(g.n);
  ThreadPool* pool = flops >= 2.0e6 ? ctx.pool() : nullptr;
  const std::int64_t blocks = (g.m + kMR - 1) / kMR;
  parallel_for(pool, blocks, 1,
               [&](std::int64_t b0, std::int64_t b1, int slot) {
                 const std::int64_t r0 = b0 * kMR;
                 const std::int64_t r1 = std::min(g.m, b1 * kMR);
                 gemm_rows(g, r0, r1,
                           ctx.scratch(slot, KernelContext::kGemmArena,
                                       scratch_floats(g, r1 - r0)));
               });
}

}  // namespace detail

namespace {

using detail::Operand;

void run(const float* a, Operand la, const float* b, Operand lb, float* c,
         std::int64_t m, std::int64_t k, std::int64_t n, bool overwrite,
         KernelContext& ctx) {
  detail::gemm({.a = a,
                .b = b,
                .c = c,
                .m = m,
                .k = k,
                .n = n,
                .la = la,
                .lb = lb,
                .lc = Operand::plain(n),
                .overwrite = overwrite},
               ctx);
}

}  // namespace

void matmul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t k, std::int64_t n, KernelContext& ctx) {
  KernelTimer t(ctx, "matmul");
  run(a, Operand::plain(k), b, Operand::plain(n), c, m, k, n, true, ctx);
}

void matmul_acc(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n, KernelContext& ctx) {
  KernelTimer t(ctx, "matmul_acc");
  run(a, Operand::plain(k), b, Operand::plain(n), c, m, k, n, false, ctx);
}

void matmul_at(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, KernelContext& ctx) {
  KernelTimer t(ctx, "matmul_at");
  run(a, Operand::transposed(m), b, Operand::plain(n), c, m, k, n, true, ctx);
}

void matmul_bt(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, KernelContext& ctx) {
  KernelTimer t(ctx, "matmul_bt");
  run(a, Operand::plain(k), b, Operand::transposed(k), c, m, k, n, true, ctx);
}

void matmul_bt_acc(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n, KernelContext& ctx) {
  KernelTimer t(ctx, "matmul_bt_acc");
  run(a, Operand::plain(k), b, Operand::transposed(k), c, m, k, n, false,
      ctx);
}

// --- scalar references -----------------------------------------------
//
// Canonical accumulation order for every variant: each C element starts
// from its beta value (0 or the prior C) and takes one madd(a, b, acc)
// per k index, in ascending k. The blocked kernels above replicate
// exactly this per-element sequence.

void matmul_ref(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n) {
  std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  matmul_acc_ref(a, b, c, m, k, n);
}

void matmul_acc_ref(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] = detail::madd(av, brow[j], crow[j]);
      }
    }
  }
}

void matmul_at_ref(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n) {
  std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  // A stored as (k, m): element A^T(i,p) = a[p*m + i].
  for (std::int64_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      float* crow = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] = detail::madd(av, brow[j], crow[j]);
      }
    }
  }
}

void matmul_bt_ref(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n) {
  // B stored as (n, k): element B^T(p,j) = b[j*k + p].
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* bcol = b + j * k;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        acc = detail::madd(arow[p], bcol[p], acc);
      }
      crow[j] = acc;
    }
  }
}

void matmul_bt_acc_ref(const float* a, const float* b, float* c,
                       std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* bcol = b + j * k;
      float acc = crow[j];
      for (std::int64_t p = 0; p < k; ++p) {
        acc = detail::madd(arow[p], bcol[p], acc);
      }
      crow[j] = acc;
    }
  }
}

}  // namespace pooch::kernels
