// Dense single-precision matrix multiply on raw pointers.
//
// These are the innermost loops of the conv/fc kernels. All variants
// funnel into one cache-blocked, packed-panel GEMM core (see matmul.cpp
// and docs/KERNELS.md): B is packed into NR-wide column panels, A into
// MR-tall row panels, and an MR x NR register micro-kernel (explicit
// AVX-512 when the build targets it, portable C++ otherwise) does the
// arithmetic. Parallelism (via the context's thread pool) partitions
// only over rows of C — independent outputs — so for every output
// element the k-dimension is accumulated in ascending order, one
// detail::madd per step, exactly like the scalar *_ref oracles below:
// the fast kernels are bit-identical to the references at any thread
// count and any optimization level.
//
// The *_ref functions are the original naive scalar loops, kept compiled
// in as oracles for tests and as the baseline the kernel bench
// (bench_kernels) measures speedup against.
#pragma once

#include <cstdint>

#include "kernels/kernel_context.hpp"

namespace pooch::kernels {

/// C(m,n) = A(m,k) * B(k,n); C is overwritten (no pre-zeroing needed).
void matmul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t k, std::int64_t n,
            KernelContext& ctx = KernelContext::serial());

/// C(m,n) += A(m,k) * B(k,n).
void matmul_acc(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n,
                KernelContext& ctx = KernelContext::serial());

/// C(m,n) = A^T(m,k) * B(k,n) where A is stored (k,m); C is overwritten.
void matmul_at(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n,
               KernelContext& ctx = KernelContext::serial());

/// C(m,n) = A(m,k) * B^T(k,n) where B is stored (n,k); C is overwritten.
void matmul_bt(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n,
               KernelContext& ctx = KernelContext::serial());

/// C(m,n) += A(m,k) * B^T(k,n) where B is stored (n,k).
void matmul_bt_acc(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n,
                   KernelContext& ctx = KernelContext::serial());

// --- scalar reference oracles (single-threaded, unblocked) ---
void matmul_ref(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n);
void matmul_acc_ref(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n);
void matmul_at_ref(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n);
void matmul_bt_ref(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n);
void matmul_bt_acc_ref(const float* a, const float* b, float* c,
                       std::int64_t m, std::int64_t k, std::int64_t n);

namespace detail {

/// Where a logical (rows x cols) GEMM operand's elements sit in memory.
///   plain:       element (r, c) at r * ld + c
///   transposed:  element (r, c) at c * ld + r  (stored cols x rows)
///   segmented:   columns come in runs of `seg`; run q starts at
///                q * seg_stride and element (r, c) sits at
///                (c / seg) * seg_stride + r * ld + c % seg.
///   segmented_transposed: the transpose of a segmented matrix, element
///                (r, c) at (r / seg) * seg_stride + c * ld + r % seg.
///                Only B may be segmented and transposed.
/// A segmented operand is a chunk of NCHW samples read or written in
/// place as one (channels x samples*pixels) matrix: seg = ld = pixels
/// per sample, seg_stride = one sample's floats.
struct Operand {
  std::int64_t ld = 0;
  bool trans = false;
  std::int64_t seg = 0;  // 0: a single run
  std::int64_t seg_stride = 0;

  static Operand plain(std::int64_t ld) { return {ld, false, 0, 0}; }
  static Operand transposed(std::int64_t ld) { return {ld, true, 0, 0}; }
  static Operand segmented(std::int64_t seg, std::int64_t seg_stride) {
    return {seg, false, seg, seg_stride};
  }
  static Operand segmented_transposed(std::int64_t seg,
                                      std::int64_t seg_stride) {
    return {seg, true, seg, seg_stride};
  }
};

/// C(m,n) = A(m,k) * B(k,n), or C += A * B when !overwrite. C must not
/// be transposed.
struct GemmShape {
  const float* a = nullptr;
  const float* b = nullptr;
  float* c = nullptr;
  std::int64_t m = 0, k = 0, n = 0;
  Operand la, lb, lc;
  bool overwrite = true;
};

/// Run the blocked GEMM on `ctx`, rows of C partitioned over its pool.
/// Every C element gets the same ascending-k madd chain as the *_ref
/// loops, so the result is bit-identical at any thread count.
void gemm(const GemmShape& g, KernelContext& ctx);

}  // namespace detail

}  // namespace pooch::kernels
