// The one multiply-add every GEMM-shaped kernel accumulates with.
//
// Bit-identity between a fast kernel and its scalar *_ref oracle needs
// both to round each step of an accumulation chain the same way. That is
// written here in the source instead of left to the compiler: with FMA
// hardware (which every AVX-512 CPU has) the step is fused, one rounding,
// matching the vector micro-kernel's _mm512_fmadd_ps; without it the step
// is a rounded product plus a rounded sum. src/kernels compiles with
// -ffp-contract=off, so the compiler never fuses `a * b + c` on its own
// and both spellings mean the same thing at -O2 and -O3.
//
// Include only from src/kernels sources: the result depends on the ISA
// flags of the including translation unit.
#pragma once

namespace pooch::kernels::detail {

/// a * b + c, fused exactly when the build targets FMA hardware.
inline float madd(float a, float b, float c) {
#if defined(__FMA__) || defined(__AVX512F__)
  return __builtin_fmaf(a, b, c);
#else
  return a * b + c;
#endif
}

}  // namespace pooch::kernels::detail
