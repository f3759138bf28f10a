#include "kernels/im2col.hpp"

#include <cstring>

#include "common/parallel.hpp"

namespace pooch::kernels {

namespace {

// Shared traversal for column-matrix rows [row0, row1) of one sample
// whose matrix rows are `ld` floats apart: calls body(col_index,
// input_index) for every in-bounds (column entry, input element) pair
// and pad_body(col_index) for padding. A row corresponds to one
// (channel, kd, kh, kw) tuple; distinct rows write distinct col entries,
// and rows of distinct channels touch distinct input channels.
template <typename Body, typename PadBody>
void for_each_col_entry(const ColGeom& g, std::int64_t row0,
                        std::int64_t row1, std::int64_t ld, Body body,
                        PadBody pad_body) {
  const std::int64_t in_d = g.in[0], in_h = g.in[1], in_w = g.in[2];
  const std::int64_t out_d = g.out[0], out_h = g.out[1], out_w = g.out[2];
  const std::int64_t kvol = g.kernel[0] * g.kernel[1] * g.kernel[2];
  for (std::int64_t row = row0; row < row1; ++row) {
    const std::int64_t c = row / kvol;
    std::int64_t rem = row % kvol;
    const std::int64_t kd = rem / (g.kernel[1] * g.kernel[2]);
    rem %= g.kernel[1] * g.kernel[2];
    const std::int64_t kh = rem / g.kernel[2];
    const std::int64_t kw = rem % g.kernel[2];
    std::int64_t col_idx = row * ld;
    for (std::int64_t od = 0; od < out_d; ++od) {
      const std::int64_t id = od * g.stride[0] - g.pad[0] + kd;
      const bool d_ok = id >= 0 && id < in_d;
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        const std::int64_t ih = oh * g.stride[1] - g.pad[1] + kh;
        const bool h_ok = ih >= 0 && ih < in_h;
        if (!d_ok || !h_ok) {
          for (std::int64_t ow = 0; ow < out_w; ++ow, ++col_idx) {
            pad_body(col_idx);
          }
          continue;
        }
        const std::int64_t in_base = ((c * in_d + id) * in_h + ih) * in_w;
        for (std::int64_t ow = 0; ow < out_w; ++ow, ++col_idx) {
          const std::int64_t iw = ow * g.stride[2] - g.pad[2] + kw;
          if (iw >= 0 && iw < in_w) {
            body(col_idx, in_base + iw);
          } else {
            pad_body(col_idx);
          }
        }
      }
    }
  }
}

}  // namespace

void im2col(const float* input, float* col, const ColGeom& g,
            ThreadPool* pool, std::int64_t samples,
            std::int64_t sample_stride) {
  // Rows write disjoint col slices; partition freely.
  const std::int64_t ld = samples * g.cols();
  parallel_for(pool, g.rows(), 1,
               [&](std::int64_t r0, std::int64_t r1, int) {
                 for (std::int64_t s = 0; s < samples; ++s) {
                   const float* in = input + s * sample_stride;
                   float* out = col + s * g.cols();
                   for_each_col_entry(
                       g, r0, r1, ld,
                       [&](std::int64_t ci, std::int64_t ii) {
                         out[ci] = in[ii];
                       },
                       [&](std::int64_t ci) { out[ci] = 0.0f; });
                 }
               });
}

void col2im(const float* col, float* input_grad, const ColGeom& g,
            ThreadPool* pool, std::int64_t samples,
            std::int64_t sample_stride) {
  // Scatter-add: rows of one channel only touch that channel's input
  // plane, so partition over channels (grain 1) and keep each channel's
  // row/column order sequential — the accumulation order per input
  // element is identical at any thread count. Samples own disjoint
  // gradients, so their order does not matter.
  const std::int64_t kvol = g.kernel[0] * g.kernel[1] * g.kernel[2];
  const std::int64_t ld = samples * g.cols();
  parallel_for(pool, g.channels, 1,
               [&](std::int64_t c0, std::int64_t c1, int) {
                 for (std::int64_t s = 0; s < samples; ++s) {
                   const float* in = col + s * g.cols();
                   float* out = input_grad + s * sample_stride;
                   for_each_col_entry(
                       g, c0 * kvol, c1 * kvol, ld,
                       [&](std::int64_t ci, std::int64_t ii) {
                         out[ii] += in[ci];
                       },
                       [](std::int64_t) {});
                 }
               });
}

}  // namespace pooch::kernels
