#include "kernels/fc.hpp"

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "kernels/matmul.hpp"

namespace pooch::kernels {

using detail::Operand;

Shape fc_output_shape(const Shape& input_shape, const FcAttrs& attrs) {
  const Shape flat = input_shape.flatten2d();
  POOCH_CHECK(attrs.out_features > 0);
  return Shape{flat[0], attrs.out_features};
}

Shape fc_weight_shape(const Shape& input_shape, const FcAttrs& attrs) {
  const Shape flat = input_shape.flatten2d();
  return Shape{attrs.out_features, flat[1]};
}

void fc_forward(const Tensor& x, const Tensor& w, const Tensor* bias,
                Tensor& y, const FcAttrs& attrs, KernelContext& ctx) {
  const Shape flat = x.shape().flatten2d();
  const std::int64_t batch = flat[0];
  const std::int64_t in_f = flat[1];
  const std::int64_t out_f = attrs.out_features;
  POOCH_CHECK(y.shape() == fc_output_shape(x.shape(), attrs));
  POOCH_CHECK(w.shape() == fc_weight_shape(x.shape(), attrs));
  POOCH_CHECK(!attrs.has_bias || (bias && bias->numel() == out_f));
  KernelTimer timer(ctx, "fc_forward");

  // y = x (N,In) * W^T (In,Out): overwrite store — no zero + re-read pass.
  // The GEMM core directly, not matmul_bt: that would time itself too.
  detail::gemm({.a = x.data(),
                .b = w.data(),
                .c = y.data(),
                .m = batch,
                .k = in_f,
                .n = out_f,
                .la = Operand::plain(in_f),
                .lb = Operand::transposed(in_f),
                .lc = Operand::plain(out_f)},
               ctx);
  if (attrs.has_bias) {
    float* yp = y.data();
    parallel_for(ctx.pool(), batch, 4,
                 [&](std::int64_t n0, std::int64_t n1, int) {
                   for (std::int64_t n = n0; n < n1; ++n) {
                     for (std::int64_t o = 0; o < out_f; ++o) {
                       yp[n * out_f + o] += (*bias)[o];
                     }
                   }
                 });
  }
}

void fc_backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                 Tensor* dx, Tensor& dw, Tensor* dbias, const FcAttrs& attrs,
                 KernelContext& ctx) {
  const Shape flat = x.shape().flatten2d();
  const std::int64_t batch = flat[0];
  const std::int64_t in_f = flat[1];
  const std::int64_t out_f = attrs.out_features;
  POOCH_CHECK(dy.shape() == fc_output_shape(x.shape(), attrs));
  POOCH_CHECK(dw.shape() == fc_weight_shape(x.shape(), attrs));
  if (dx) POOCH_CHECK(dx->shape() == x.shape());
  KernelTimer timer(ctx, "fc_backward");

  // dW (Out,In) = dY^T (Out,N) * X (N,In)
  detail::gemm({.a = dy.data(),
                .b = x.data(),
                .c = dw.data(),
                .m = out_f,
                .k = batch,
                .n = in_f,
                .la = Operand::transposed(out_f),
                .lb = Operand::plain(in_f),
                .lc = Operand::plain(in_f)},
               ctx);
  if (dx) {
    // dX (N,In) = dY (N,Out) * W (Out,In)
    detail::gemm({.a = dy.data(),
                  .b = w.data(),
                  .c = dx->data(),
                  .m = batch,
                  .k = out_f,
                  .n = in_f,
                  .la = Operand::plain(out_f),
                  .lb = Operand::plain(in_f),
                  .lc = Operand::plain(in_f)},
                 ctx);
  }
  if (attrs.has_bias && dbias) {
    // Output features are independent accumulators; inside each the
    // batch loop stays ascending, matching the serial order.
    const float* dyp = dy.data();
    parallel_for(ctx.pool(), out_f, 4,
                 [&](std::int64_t o0, std::int64_t o1, int) {
                   for (std::int64_t o = o0; o < o1; ++o) {
                     float acc = 0.0f;
                     for (std::int64_t n = 0; n < batch; ++n) {
                       acc += dyp[n * out_f + o];
                     }
                     (*dbias)[o] = acc;
                   }
                 });
  }
}

void fc_forward_ref(const Tensor& x, const Tensor& w, const Tensor* bias,
                    Tensor& y, const FcAttrs& attrs) {
  const Shape flat = x.shape().flatten2d();
  const std::int64_t batch = flat[0];
  const std::int64_t in_f = flat[1];
  const std::int64_t out_f = attrs.out_features;
  POOCH_CHECK(y.shape() == fc_output_shape(x.shape(), attrs));
  POOCH_CHECK(w.shape() == fc_weight_shape(x.shape(), attrs));
  POOCH_CHECK(!attrs.has_bias || (bias && bias->numel() == out_f));

  matmul_bt_ref(x.data(), w.data(), y.data(), batch, in_f, out_f);
  if (attrs.has_bias) {
    float* yp = y.data();
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t o = 0; o < out_f; ++o) yp[n * out_f + o] += (*bias)[o];
    }
  }
}

void fc_backward_ref(const Tensor& x, const Tensor& w, const Tensor& dy,
                     Tensor* dx, Tensor& dw, Tensor* dbias,
                     const FcAttrs& attrs) {
  const Shape flat = x.shape().flatten2d();
  const std::int64_t batch = flat[0];
  const std::int64_t in_f = flat[1];
  const std::int64_t out_f = attrs.out_features;
  POOCH_CHECK(dy.shape() == fc_output_shape(x.shape(), attrs));
  POOCH_CHECK(dw.shape() == fc_weight_shape(x.shape(), attrs));
  if (dx) POOCH_CHECK(dx->shape() == x.shape());

  matmul_at_ref(dy.data(), x.data(), dw.data(), out_f, batch, in_f);
  if (dx) {
    matmul_ref(dy.data(), w.data(), dx->data(), batch, out_f, in_f);
  }
  if (attrs.has_bias && dbias) {
    const float* dyp = dy.data();
    for (std::int64_t o = 0; o < out_f; ++o) {
      float acc = 0.0f;
      for (std::int64_t n = 0; n < batch; ++n) acc += dyp[n * out_f + o];
      (*dbias)[o] = acc;
    }
  }
}

}  // namespace pooch::kernels
