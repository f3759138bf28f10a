// im2col / col2im for up-to-3 spatial dimensions.
//
// Layout: input channel block is (C, D, H, W) for one sample; the column
// matrix is (C * Kd * Kh * Kw) rows by (outD * outH * outW) columns per
// sample, row major — exactly the operand layout the conv kernels feed
// into the GEMM. Several samples lower side by side into one wider
// matrix, so one GEMM covers a whole chunk of the batch.
// 2-D convolutions pass D = Kd = outD = 1.
#pragma once

#include <cstdint>

#include "common/thread_pool.hpp"
#include "kernels/attrs.hpp"

namespace pooch::kernels {

struct ColGeom {
  std::int64_t channels = 0;
  Triple in{1, 1, 1};   // input spatial extents (D, H, W)
  Triple out{1, 1, 1};  // output spatial extents
  Triple kernel{1, 1, 1};
  Triple stride{1, 1, 1};
  Triple pad{0, 0, 0};

  std::int64_t rows() const {
    return channels * kernel[0] * kernel[1] * kernel[2];
  }
  std::int64_t cols() const { return out[0] * out[1] * out[2]; }
};

/// Output spatial extent for one axis.
constexpr std::int64_t conv_out_extent(std::int64_t in, std::int64_t kernel,
                                       std::int64_t stride, std::int64_t pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

/// Expand `samples` consecutive samples, `sample_stride` floats apart,
/// into one column matrix of rows() x (samples * cols()): sample s fills
/// columns [s * cols(), (s + 1) * cols()). With the defaults this is one
/// sample's rows() x cols() matrix. With a pool, work is partitioned over
/// column-matrix rows (pure disjoint writes), so the result is identical
/// at any thread count.
void im2col(const float* input, float* col, const ColGeom& g,
            ThreadPool* pool = nullptr, std::int64_t samples = 1,
            std::int64_t sample_stride = 0);

/// Scatter-add a column matrix laid out as im2col writes it back into
/// `samples` input gradients (which must be zeroed by the caller if
/// accumulation from a clean slate is wanted). With a pool, work is
/// partitioned over input channels — each input element is touched by
/// exactly one block, in the same ascending row/column order as the
/// one-sample serial loop, so accumulation is bit-identical at any thread
/// count and any number of samples per call.
void col2im(const float* col, float* input_grad, const ColGeom& g,
            ThreadPool* pool = nullptr, std::int64_t samples = 1,
            std::int64_t sample_stride = 0);

}  // namespace pooch::kernels
