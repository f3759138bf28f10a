#include "kernels/conv.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "kernels/im2col.hpp"
#include "kernels/matmul.hpp"

namespace pooch::kernels {

namespace {

using detail::Operand;

struct ConvGeom {
  std::int64_t batch = 0;
  std::int64_t in_channels = 0;
  Triple in{1, 1, 1};
  Triple out{1, 1, 1};
  std::int64_t groups = 1;
  std::int64_t cg = 0;  // input channels per group
  std::int64_t og = 0;  // output channels per group
  ColGeom col;          // geometry of one group's column buffer

  std::int64_t in_sample_stride() const {
    return in_channels * in[0] * in[1] * in[2];
  }
  std::int64_t in_group_stride() const {
    return cg * in[0] * in[1] * in[2];
  }
  std::int64_t out_sample_stride(std::int64_t out_channels) const {
    return out_channels * out[0] * out[1] * out[2];
  }
};

ConvGeom make_geom(const Shape& x_shape, const ConvAttrs& a) {
  POOCH_CHECK_MSG(a.spatial_rank == 2 || a.spatial_rank == 3,
                  "spatial_rank must be 2 or 3");
  const int want_rank = a.spatial_rank + 2;
  POOCH_CHECK_MSG(x_shape.rank() == want_rank,
                  "conv input rank " << x_shape.rank() << " != " << want_rank);
  ConvGeom g;
  g.batch = x_shape[0];
  g.in_channels = x_shape[1];
  if (a.spatial_rank == 2) {
    g.in = {1, x_shape[2], x_shape[3]};
  } else {
    g.in = {x_shape[2], x_shape[3], x_shape[4]};
  }
  for (int i = 0; i < 3; ++i) {
    const std::int64_t o =
        conv_out_extent(g.in[static_cast<std::size_t>(i)],
                        a.kernel[static_cast<std::size_t>(i)],
                        a.stride[static_cast<std::size_t>(i)],
                        a.pad[static_cast<std::size_t>(i)]);
    POOCH_CHECK_MSG(o >= 1, "conv output extent <= 0 on axis " << i);
    g.out[static_cast<std::size_t>(i)] = o;
  }
  g.groups = a.groups;
  POOCH_CHECK_MSG(g.in_channels % g.groups == 0,
                  "in_channels " << g.in_channels << " not divisible by groups "
                                 << g.groups);
  POOCH_CHECK_MSG(a.out_channels % g.groups == 0,
                  "out_channels " << a.out_channels
                                  << " not divisible by groups " << g.groups);
  g.cg = g.in_channels / g.groups;
  g.og = a.out_channels / g.groups;
  g.col.channels = g.cg;
  g.col.in = g.in;
  g.col.out = g.out;
  g.col.kernel = a.kernel;
  g.col.stride = a.stride;
  g.col.pad = a.pad;
  return g;
}

// Samples lowered into one column matrix: the fewest whose columns reach
// kChunkCols, so the GEMM tile has work even where a sample has only a
// handful of output pixels. The chunk's matrix is capped at kChunkFloats
// (one sample always fits, however large). Chunks are balanced so the
// last one is not a sliver.
constexpr std::int64_t kChunkCols = 256;
constexpr std::int64_t kChunkFloats = std::int64_t{1} << 18;  // 1 MiB

std::int64_t chunk_samples(const ConvGeom& g) {
  const std::int64_t pixels = g.col.cols();
  const std::int64_t by_cols = (kChunkCols + pixels - 1) / pixels;
  const std::int64_t by_floats = kChunkFloats / (g.col.rows() * pixels);
  const std::int64_t cap =
      std::max<std::int64_t>(1, std::min({by_cols, by_floats, g.batch}));
  const std::int64_t chunks = (g.batch + cap - 1) / cap;
  return chunks <= 1 ? cap : (g.batch + chunks - 1) / chunks;
}

// 1x1, stride 1, unpadded: the column matrix of a chunk is the chunk of
// input itself, so the GEMMs read (and dX is written) in place in NCHW,
// with no im2col, col2im or column buffer.
bool pointwise(const ConvAttrs& a) {
  for (std::size_t i = 0; i < 3; ++i) {
    if (a.kernel[i] != 1 || a.stride[i] != 1 || a.pad[i] != 0) return false;
  }
  return true;
}

}  // namespace

Shape conv_output_shape(const Shape& input_shape, const ConvAttrs& attrs) {
  const ConvGeom g = make_geom(input_shape, attrs);
  if (attrs.spatial_rank == 2) {
    return Shape{g.batch, attrs.out_channels, g.out[1], g.out[2]};
  }
  return Shape{g.batch, attrs.out_channels, g.out[0], g.out[1], g.out[2]};
}

Shape conv_weight_shape(const Shape& input_shape, const ConvAttrs& attrs) {
  const ConvGeom g = make_geom(input_shape, attrs);
  if (attrs.spatial_rank == 2) {
    return Shape{attrs.out_channels, g.cg, attrs.kernel[1], attrs.kernel[2]};
  }
  return Shape{attrs.out_channels, g.cg, attrs.kernel[0], attrs.kernel[1],
               attrs.kernel[2]};
}

std::size_t conv_workspace_bytes(const Shape& input_shape,
                                 const ConvAttrs& attrs) {
  const ConvGeom g = make_geom(input_shape, attrs);
  return static_cast<std::size_t>(g.col.rows() * g.col.cols()) * sizeof(float);
}

void conv_forward(const Tensor& x, const Tensor& w, const Tensor* bias,
                  Tensor& y, const ConvAttrs& attrs, KernelContext& ctx) {
  KernelTimer timer(ctx, "conv_forward");
  const ConvGeom g = make_geom(x.shape(), attrs);
  POOCH_CHECK(y.shape() == conv_output_shape(x.shape(), attrs));
  POOCH_CHECK(w.shape() == conv_weight_shape(x.shape(), attrs));
  POOCH_CHECK(!attrs.has_bias || (bias && bias->numel() == attrs.out_channels));

  const std::int64_t rows = g.col.rows();
  const std::int64_t pixels = g.col.cols();
  const std::int64_t chunk = chunk_samples(g);
  const std::int64_t out_stride = g.out_sample_stride(attrs.out_channels);
  const bool direct = pointwise(attrs);
  float* col = direct ? nullptr
                      : ctx.scratch(0, KernelContext::kColArena,
                                    static_cast<std::size_t>(rows * chunk *
                                                             pixels));
  ThreadPool* pool = ctx.pool();

  for (std::int64_t n0 = 0; n0 < g.batch; n0 += chunk) {
    const std::int64_t cn = std::min(chunk, g.batch - n0);
    for (std::int64_t grp = 0; grp < g.groups; ++grp) {
      const float* x0 =
          x.data() + n0 * g.in_sample_stride() + grp * g.in_group_stride();
      if (!direct) im2col(x0, col, g.col, pool, cn, g.in_sample_stride());
      // Y_g (og, cn*pixels) = W_g * col, written in place into NCHW.
      detail::gemm(
          {.a = w.data() + grp * g.og * rows,
           .b = direct ? x0 : col,
           .c = y.data() + n0 * out_stride + grp * g.og * pixels,
           .m = g.og,
           .k = rows,
           .n = cn * pixels,
           .la = Operand::plain(rows),
           .lb = direct ? Operand::segmented(pixels, g.in_sample_stride())
                        : Operand::plain(cn * pixels),
           .lc = Operand::segmented(pixels, out_stride)},
          ctx);
    }
  }
  if (attrs.has_bias) {
    // Rows of y are (sample, channel) planes.
    parallel_for(pool, g.batch * attrs.out_channels, 16,
                 [&](std::int64_t r0, std::int64_t r1, int) {
                   for (std::int64_t r = r0; r < r1; ++r) {
                     const float b = (*bias)[r % attrs.out_channels];
                     float* row = y.data() + r * pixels;
                     for (std::int64_t j = 0; j < pixels; ++j) row[j] += b;
                   }
                 });
  }
}

void conv_backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                   Tensor* dx, Tensor& dw, Tensor* dbias,
                   const ConvAttrs& attrs, KernelContext& ctx) {
  KernelTimer timer(ctx, "conv_backward");
  const ConvGeom g = make_geom(x.shape(), attrs);
  POOCH_CHECK(dy.shape() == conv_output_shape(x.shape(), attrs));
  POOCH_CHECK(dw.shape() == conv_weight_shape(x.shape(), attrs));
  if (dx) POOCH_CHECK(dx->shape() == x.shape());

  const std::int64_t rows = g.col.rows();
  const std::int64_t pixels = g.col.cols();
  const std::int64_t chunk = chunk_samples(g);
  const std::int64_t in_stride = g.in_sample_stride();
  const std::int64_t out_stride = g.out_sample_stride(attrs.out_channels);
  const bool direct = pointwise(attrs);
  // One buffer holds the chunk's columns for dW, then its column
  // gradient for dX.
  float* col = direct ? nullptr
                      : ctx.scratch(0, KernelContext::kColArena,
                                    static_cast<std::size_t>(rows * chunk *
                                                             pixels));
  ThreadPool* pool = ctx.pool();

  for (std::int64_t n0 = 0; n0 < g.batch; n0 += chunk) {
    const std::int64_t cn = std::min(chunk, g.batch - n0);
    const std::int64_t cols = cn * pixels;
    const float* dy0 = dy.data() + n0 * out_stride;
    const Operand dy_chunk = Operand::segmented(pixels, out_stride);
    if (dx && !direct) {
      // col2im accumulates: the chunk's dX starts from zero.
      float* d0 = dx->data() + n0 * in_stride;
      parallel_for(pool, cn * in_stride, 1 << 14,
                   [&](std::int64_t i0, std::int64_t i1, int) {
                     std::fill(d0 + i0, d0 + i1, 0.0f);
                   });
    }
    for (std::int64_t grp = 0; grp < g.groups; ++grp) {
      const std::int64_t in_off = n0 * in_stride + grp * g.in_group_stride();
      const float* x0 = x.data() + in_off;
      if (!direct) im2col(x0, col, g.col, pool, cn, in_stride);
      // dW_g (og, rows) = dY_g (og, cols) * col^T (cols, rows), written
      // by the first chunk and accumulated by the rest. Each dW element's
      // k-chain starts from +0 and runs sample-major over the columns:
      // exactly the per-sample matmul_bt_acc sequence of the reference.
      detail::gemm(
          {.a = dy0 + grp * g.og * pixels,
           .b = direct ? x0 : col,
           .c = dw.data() + grp * g.og * rows,
           .m = g.og,
           .k = cols,
           .n = rows,
           .la = dy_chunk,
           .lb = direct ? Operand::segmented_transposed(pixels, in_stride)
                        : Operand::transposed(cols),
           .lc = Operand::plain(rows),
           .overwrite = n0 == 0},
          ctx);
      if (dx) {
        // col_grad (rows, cols) = W_g^T (rows, og) * dY_g (og, cols),
        // overwriting the columns dW no longer needs — or, pointwise,
        // written straight into dX (0 + v is v: the chain never yields -0).
        detail::gemm(
            {.a = w.data() + grp * g.og * rows,
             .b = dy0 + grp * g.og * pixels,
             .c = direct ? dx->data() + in_off : col,
             .m = rows,
             .k = g.og,
             .n = cols,
             .la = Operand::transposed(rows),
             .lb = dy_chunk,
             .lc = direct ? Operand::segmented(pixels, in_stride)
                          : Operand::plain(cols)},
            ctx);
        if (!direct) col2im(col, dx->data() + in_off, g.col, pool, cn,
                            in_stride);
      }
    }
  }

  if (attrs.has_bias && dbias) {
    // Output channels are independent; within one the batch loop is
    // the sequential outer loop, so accumulation order matches ref.
    parallel_for(pool, attrs.out_channels, 4,
                 [&](std::int64_t o0, std::int64_t o1, int) {
                   for (std::int64_t o = o0; o < o1; ++o) {
                     float total = 0.0f;
                     for (std::int64_t n = 0; n < g.batch; ++n) {
                       const float* row =
                           dy.data() + n * out_stride + o * pixels;
                       float acc = 0.0f;
                       for (std::int64_t j = 0; j < pixels; ++j) {
                         acc += row[j];
                       }
                       total += acc;
                     }
                     (*dbias)[o] = total;
                   }
                 });
  }
}

void conv_forward_ref(const Tensor& x, const Tensor& w, const Tensor* bias,
                      Tensor& y, const ConvAttrs& attrs) {
  const ConvGeom g = make_geom(x.shape(), attrs);
  POOCH_CHECK(y.shape() == conv_output_shape(x.shape(), attrs));
  POOCH_CHECK(w.shape() == conv_weight_shape(x.shape(), attrs));
  POOCH_CHECK(!attrs.has_bias || (bias && bias->numel() == attrs.out_channels));

  const std::int64_t col_rows = g.col.rows();
  const std::int64_t col_cols = g.col.cols();
  std::vector<float> col(static_cast<std::size_t>(col_rows * col_cols));

  const std::int64_t w_group_stride = g.og * col_rows;
  const std::int64_t in_group_stride = g.cg * g.in[0] * g.in[1] * g.in[2];
  const std::int64_t out_group_stride = g.og * col_cols;

  for (std::int64_t n = 0; n < g.batch; ++n) {
    const float* xin = x.data() + n * g.in_sample_stride();
    float* yout = y.data() + n * g.out_sample_stride(attrs.out_channels);
    for (std::int64_t grp = 0; grp < g.groups; ++grp) {
      im2col(xin + grp * in_group_stride, col.data(), g.col);
      matmul_ref(w.data() + grp * w_group_stride, col.data(),
                 yout + grp * out_group_stride, g.og, col_rows, col_cols);
    }
    if (attrs.has_bias) {
      for (std::int64_t o = 0; o < attrs.out_channels; ++o) {
        const float b = (*bias)[o];
        float* row = yout + o * col_cols;
        for (std::int64_t j = 0; j < col_cols; ++j) row[j] += b;
      }
    }
  }
}

void conv_backward_ref(const Tensor& x, const Tensor& w, const Tensor& dy,
                       Tensor* dx, Tensor& dw, Tensor* dbias,
                       const ConvAttrs& attrs) {
  const ConvGeom g = make_geom(x.shape(), attrs);
  POOCH_CHECK(dy.shape() == conv_output_shape(x.shape(), attrs));
  POOCH_CHECK(dw.shape() == conv_weight_shape(x.shape(), attrs));
  if (dx) POOCH_CHECK(dx->shape() == x.shape());

  const std::int64_t col_rows = g.col.rows();
  const std::int64_t col_cols = g.col.cols();
  std::vector<float> col(static_cast<std::size_t>(col_rows * col_cols));
  std::vector<float> col_grad;
  if (dx) col_grad.resize(static_cast<std::size_t>(col_rows * col_cols));

  dw.zero();
  if (dx) dx->zero();
  if (attrs.has_bias && dbias) dbias->zero();

  const std::int64_t w_group_stride = g.og * col_rows;
  const std::int64_t in_group_stride = g.cg * g.in[0] * g.in[1] * g.in[2];
  const std::int64_t out_group_stride = g.og * col_cols;

  for (std::int64_t n = 0; n < g.batch; ++n) {
    const float* xin = x.data() + n * g.in_sample_stride();
    const float* dyout = dy.data() + n * g.out_sample_stride(attrs.out_channels);
    for (std::int64_t grp = 0; grp < g.groups; ++grp) {
      im2col(xin + grp * in_group_stride, col.data(), g.col);
      matmul_bt_acc_ref(dyout + grp * out_group_stride, col.data(),
                        dw.data() + grp * w_group_stride, g.og, col_cols,
                        col_rows);
      if (dx) {
        matmul_at_ref(w.data() + grp * w_group_stride,
                      dyout + grp * out_group_stride, col_grad.data(), col_rows,
                      g.og, col_cols);
        col2im(col_grad.data(), dx->data() + n * g.in_sample_stride() +
                                    grp * in_group_stride,
               g.col);
      }
    }
    if (attrs.has_bias && dbias) {
      for (std::int64_t o = 0; o < attrs.out_channels; ++o) {
        const float* row = dyout + o * col_cols;
        float acc = 0.0f;
        for (std::int64_t j = 0; j < col_cols; ++j) acc += row[j];
        (*dbias)[o] += acc;
      }
    }
  }
}

}  // namespace pooch::kernels
