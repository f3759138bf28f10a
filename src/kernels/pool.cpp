#include "kernels/pool.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "kernels/im2col.hpp"

namespace pooch::kernels {

namespace {

struct PoolGeom {
  std::int64_t batch = 0;
  std::int64_t channels = 0;
  Triple in{1, 1, 1};
  Triple out{1, 1, 1};
};

PoolGeom make_geom(const Shape& x_shape, const PoolAttrs& a) {
  POOCH_CHECK(a.spatial_rank == 2 || a.spatial_rank == 3);
  const int want_rank = a.spatial_rank + 2;
  POOCH_CHECK_MSG(x_shape.rank() == want_rank,
                  "pool input rank " << x_shape.rank() << " != " << want_rank);
  PoolGeom g;
  g.batch = x_shape[0];
  g.channels = x_shape[1];
  if (a.spatial_rank == 2) {
    g.in = {1, x_shape[2], x_shape[3]};
  } else {
    g.in = {x_shape[2], x_shape[3], x_shape[4]};
  }
  for (std::size_t i = 0; i < 3; ++i) {
    g.out[i] = conv_out_extent(g.in[i], a.kernel[i], a.stride[i], a.pad[i]);
    POOCH_CHECK(g.out[i] >= 1);
  }
  return g;
}

// Iterate pooling windows of planes [p0, p1), where a plane is one
// (n, c) pair; body(plane_in, plane_out, window_begin/end per axis) per
// window, in the serial order within each plane. Planes never alias, so
// disjoint plane ranges can run concurrently.
template <typename Body>
void for_each_window(const PoolGeom& g, const PoolAttrs& a, std::int64_t p0,
                     std::int64_t p1, Body body) {
  const std::int64_t plane_in_sz = g.in[0] * g.in[1] * g.in[2];
  const std::int64_t plane_out_sz = g.out[0] * g.out[1] * g.out[2];
  for (std::int64_t p = p0; p < p1; ++p) {
    const std::int64_t in_base = p * plane_in_sz;
    const std::int64_t out_base = p * plane_out_sz;
    std::int64_t oi = 0;
    for (std::int64_t od = 0; od < g.out[0]; ++od) {
      const std::int64_t d0 = std::max<std::int64_t>(0, od * a.stride[0] - a.pad[0]);
      const std::int64_t d1 = std::min(g.in[0], od * a.stride[0] - a.pad[0] + a.kernel[0]);
      for (std::int64_t oh = 0; oh < g.out[1]; ++oh) {
        const std::int64_t h0 = std::max<std::int64_t>(0, oh * a.stride[1] - a.pad[1]);
        const std::int64_t h1 = std::min(g.in[1], oh * a.stride[1] - a.pad[1] + a.kernel[1]);
        for (std::int64_t ow = 0; ow < g.out[2]; ++ow, ++oi) {
          const std::int64_t w0 = std::max<std::int64_t>(0, ow * a.stride[2] - a.pad[2]);
          const std::int64_t w1 = std::min(g.in[2], ow * a.stride[2] - a.pad[2] + a.kernel[2]);
          body(in_base, out_base + oi, d0, d1, h0, h1, w0, w1);
        }
      }
    }
  }
}

void pool_forward_planes(const Tensor& x, Tensor& y, const PoolAttrs& attrs,
                         const PoolGeom& g, ThreadPool* pool) {
  const float* xp = x.data();
  float* yp = y.data();
  const std::int64_t hw = g.in[1] * g.in[2];
  parallel_for(pool, g.batch * g.channels, 1, [&](std::int64_t p0,
                                                  std::int64_t p1, int) {
    for_each_window(
        g, attrs, p0, p1,
        [&](std::int64_t in_base, std::int64_t out_idx, std::int64_t d0,
            std::int64_t d1, std::int64_t h0, std::int64_t h1, std::int64_t w0,
            std::int64_t w1) {
          if (attrs.mode == PoolMode::kMax) {
            float best = -std::numeric_limits<float>::infinity();
            for (std::int64_t d = d0; d < d1; ++d) {
              for (std::int64_t h = h0; h < h1; ++h) {
                const std::int64_t row = in_base + d * hw + h * g.in[2];
                for (std::int64_t w = w0; w < w1; ++w) {
                  best = std::max(best, xp[row + w]);
                }
              }
            }
            yp[out_idx] = best;
          } else {
            // cuDNN-style "exclude padding" averaging over the valid window.
            double acc = 0.0;
            std::int64_t count = 0;
            for (std::int64_t d = d0; d < d1; ++d) {
              for (std::int64_t h = h0; h < h1; ++h) {
                const std::int64_t row = in_base + d * hw + h * g.in[2];
                for (std::int64_t w = w0; w < w1; ++w) {
                  acc += xp[row + w];
                  ++count;
                }
              }
            }
            yp[out_idx] =
                count > 0
                    ? static_cast<float>(acc / static_cast<double>(count))
                    : 0.0f;
          }
        });
  });
}

void pool_backward_planes(const Tensor& x, const Tensor& dy, Tensor& dx,
                          const PoolAttrs& attrs, const PoolGeom& g,
                          ThreadPool* pool) {
  const float* xp = x.data();
  const float* dyp = dy.data();
  float* dxp = dx.data();
  const std::int64_t hw = g.in[1] * g.in[2];
  const std::int64_t plane = g.in[0] * hw;
  parallel_for(pool, g.batch * g.channels, 1, [&](std::int64_t p0,
                                                  std::int64_t p1, int) {
    // Windows scatter-add into dX: each block zeroes its own planes.
    std::fill(dxp + p0 * plane, dxp + p1 * plane, 0.0f);
    for_each_window(
        g, attrs, p0, p1,
        [&](std::int64_t in_base, std::int64_t out_idx, std::int64_t d0,
            std::int64_t d1, std::int64_t h0, std::int64_t h1, std::int64_t w0,
            std::int64_t w1) {
          if (attrs.mode == PoolMode::kMax) {
            float best = -std::numeric_limits<float>::infinity();
            std::int64_t best_idx = -1;
            for (std::int64_t d = d0; d < d1; ++d) {
              for (std::int64_t h = h0; h < h1; ++h) {
                const std::int64_t row = in_base + d * hw + h * g.in[2];
                for (std::int64_t w = w0; w < w1; ++w) {
                  if (xp[row + w] > best) {
                    best = xp[row + w];
                    best_idx = row + w;
                  }
                }
              }
            }
            if (best_idx >= 0) dxp[best_idx] += dyp[out_idx];
          } else {
            std::int64_t count = (d1 - d0) * (h1 - h0) * (w1 - w0);
            if (count <= 0) return;
            const float share = dyp[out_idx] / static_cast<float>(count);
            for (std::int64_t d = d0; d < d1; ++d) {
              for (std::int64_t h = h0; h < h1; ++h) {
                const std::int64_t row = in_base + d * hw + h * g.in[2];
                for (std::int64_t w = w0; w < w1; ++w) dxp[row + w] += share;
              }
            }
          }
        });
  });
}

}  // namespace

Shape pool_output_shape(const Shape& input_shape, const PoolAttrs& attrs) {
  const PoolGeom g = make_geom(input_shape, attrs);
  if (attrs.spatial_rank == 2) {
    return Shape{g.batch, g.channels, g.out[1], g.out[2]};
  }
  return Shape{g.batch, g.channels, g.out[0], g.out[1], g.out[2]};
}

void pool_forward(const Tensor& x, Tensor& y, const PoolAttrs& attrs,
                  KernelContext& ctx) {
  const PoolGeom g = make_geom(x.shape(), attrs);
  POOCH_CHECK(y.shape() == pool_output_shape(x.shape(), attrs));
  KernelTimer timer(ctx, "pool_forward");
  pool_forward_planes(x, y, attrs, g, ctx.pool());
}

void pool_backward(const Tensor& x, const Tensor& dy, Tensor& dx,
                   const PoolAttrs& attrs, KernelContext& ctx) {
  const PoolGeom g = make_geom(x.shape(), attrs);
  POOCH_CHECK(dy.shape() == pool_output_shape(x.shape(), attrs));
  POOCH_CHECK(dx.shape() == x.shape());
  KernelTimer timer(ctx, "pool_backward");
  pool_backward_planes(x, dy, dx, attrs, g, ctx.pool());
}

Shape global_avg_pool_output_shape(const Shape& input_shape) {
  POOCH_CHECK(input_shape.rank() >= 3);
  return Shape{input_shape[0], input_shape[1]};
}

void global_avg_pool_forward(const Tensor& x, Tensor& y, KernelContext& ctx) {
  const Shape& s = x.shape();
  POOCH_CHECK(y.shape() == global_avg_pool_output_shape(s));
  KernelTimer timer(ctx, "global_avg_pool");
  std::int64_t spatial = 1;
  for (int i = 2; i < s.rank(); ++i) spatial *= s[i];
  const float* xp = x.data();
  float* yp = y.data();
  parallel_for(ctx.pool(), s[0] * s[1], 1,
               [&](std::int64_t i0, std::int64_t i1, int) {
                 for (std::int64_t i = i0; i < i1; ++i) {
                   double acc = 0.0;
                   const float* row = xp + i * spatial;
                   for (std::int64_t j = 0; j < spatial; ++j) acc += row[j];
                   yp[i] = static_cast<float>(acc / static_cast<double>(spatial));
                 }
               });
}

void global_avg_pool_backward(const Shape& input_shape, const Tensor& dy,
                              Tensor& dx, KernelContext& ctx) {
  POOCH_CHECK(dx.shape() == input_shape);
  POOCH_CHECK(dy.shape() == global_avg_pool_output_shape(input_shape));
  KernelTimer timer(ctx, "global_avg_pool");
  std::int64_t spatial = 1;
  for (int i = 2; i < input_shape.rank(); ++i) spatial *= input_shape[i];
  const float* dyp = dy.data();
  float* dxp = dx.data();
  parallel_for(ctx.pool(), input_shape[0] * input_shape[1], 1,
               [&](std::int64_t i0, std::int64_t i1, int) {
                 for (std::int64_t i = i0; i < i1; ++i) {
                   const float share = dyp[i] / static_cast<float>(spatial);
                   float* row = dxp + i * spatial;
                   for (std::int64_t j = 0; j < spatial; ++j) row[j] = share;
                 }
               });
}

void pool_forward_ref(const Tensor& x, Tensor& y, const PoolAttrs& attrs) {
  const PoolGeom g = make_geom(x.shape(), attrs);
  POOCH_CHECK(y.shape() == pool_output_shape(x.shape(), attrs));
  pool_forward_planes(x, y, attrs, g, nullptr);
}

void pool_backward_ref(const Tensor& x, const Tensor& dy, Tensor& dx,
                       const PoolAttrs& attrs) {
  const PoolGeom g = make_geom(x.shape(), attrs);
  POOCH_CHECK(dy.shape() == pool_output_shape(x.shape(), attrs));
  POOCH_CHECK(dx.shape() == x.shape());
  pool_backward_planes(x, dy, dx, attrs, g, nullptr);
}

void global_avg_pool_forward_ref(const Tensor& x, Tensor& y) {
  global_avg_pool_forward(x, y);
}

void global_avg_pool_backward_ref(const Shape& input_shape, const Tensor& dy,
                                  Tensor& dx) {
  global_avg_pool_backward(input_shape, dy, dx);
}

}  // namespace pooch::kernels
