#include "kernels/activations.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace pooch::kernels {

namespace {
// Below this many elements the fan-out overhead dominates the work.
constexpr std::int64_t kEltwiseGrain = 1 << 14;

// dx = y > 0 ? dy : 0 over [i0, i1), branch-free: dy is loaded whatever
// the mask, so each element is a compare and a select. The -O2 build
// does not vectorize the scalar form (its cost model refuses the alias
// check and remainder loop), hence the explicit 16-lane version.
void relu_backward_range(const float* yp, const float* dyp, float* dxp,
                         std::int64_t i0, std::int64_t i1) {
  std::int64_t i = i0;
#if defined(__AVX512F__)
  const __m512 zero = _mm512_setzero_ps();
  for (; i < i1; i += 16) {
    const __mmask16 lanes =
        i1 - i >= 16 ? __mmask16(0xffff)
                     : static_cast<__mmask16>((1u << (i1 - i)) - 1u);
    // Ordered compare: a NaN y selects 0, as the scalar form does.
    const __mmask16 pos = _mm512_mask_cmp_ps_mask(
        lanes, _mm512_maskz_loadu_ps(lanes, yp + i), zero, _CMP_GT_OQ);
    _mm512_mask_storeu_ps(
        dxp + i, lanes,
        _mm512_maskz_mov_ps(pos, _mm512_maskz_loadu_ps(lanes, dyp + i)));
  }
#endif
  for (; i < i1; ++i) {
    const float d = dyp[i];
    dxp[i] = yp[i] > 0.0f ? d : 0.0f;
  }
}
}  // namespace

void relu_forward(const Tensor& x, Tensor& y, KernelContext& ctx) {
  POOCH_CHECK(y.shape() == x.shape());
  KernelTimer timer(ctx, "relu_forward");
  const float* xp = x.data();
  float* yp = y.data();
  parallel_for(ctx.pool(), x.numel(), kEltwiseGrain,
               [&](std::int64_t i0, std::int64_t i1, int) {
                 for (std::int64_t i = i0; i < i1; ++i) {
                   yp[i] = xp[i] > 0.0f ? xp[i] : 0.0f;
                 }
               });
}

void relu_backward(const Tensor& y, const Tensor& dy, Tensor& dx,
                   KernelContext& ctx) {
  POOCH_CHECK(dy.shape() == y.shape());
  POOCH_CHECK(dx.shape() == y.shape());
  KernelTimer timer(ctx, "relu_backward");
  const float* yp = y.data();
  const float* dyp = dy.data();
  float* dxp = dx.data();
  parallel_for(ctx.pool(), y.numel(), kEltwiseGrain,
               [&](std::int64_t i0, std::int64_t i1, int) {
                 relu_backward_range(yp, dyp, dxp, i0, i1);
               });
}

void relu_forward_ref(const Tensor& x, Tensor& y) {
  POOCH_CHECK(y.shape() == x.shape());
  const float* xp = x.data();
  float* yp = y.data();
  const std::int64_t n = x.numel();
  for (std::int64_t i = 0; i < n; ++i) yp[i] = xp[i] > 0.0f ? xp[i] : 0.0f;
}

void relu_backward_ref(const Tensor& y, const Tensor& dy, Tensor& dx) {
  POOCH_CHECK(dy.shape() == y.shape());
  POOCH_CHECK(dx.shape() == y.shape());
  const float* yp = y.data();
  const float* dyp = dy.data();
  float* dxp = dx.data();
  const std::int64_t n = y.numel();
  for (std::int64_t i = 0; i < n; ++i) dxp[i] = yp[i] > 0.0f ? dyp[i] : 0.0f;
}

}  // namespace pooch::kernels
