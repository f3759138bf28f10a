// Grouped N-dimensional convolution (2-D and 3-D), forward and backward,
// implemented by lowering a chunk of samples with im2col and running one
// blocked GEMM per (chunk, group).
//
// Layouts:
//   2-D: x (N,C,H,W),   w (O, C/g, Kh, Kw),     y (N,O,outH,outW)
//   3-D: x (N,C,D,H,W), w (O, C/g, Kd, Kh, Kw), y (N,O,outD,outH,outW)
//   bias (O), optional.
#pragma once

#include "kernels/attrs.hpp"
#include "kernels/kernel_context.hpp"
#include "tensor/tensor.hpp"

namespace pooch::kernels {

/// Shape of the convolution output for `input_shape` under `attrs`.
Shape conv_output_shape(const Shape& input_shape, const ConvAttrs& attrs);

/// Shape of the weight tensor for `input_shape` under `attrs`.
Shape conv_weight_shape(const Shape& input_shape, const ConvAttrs& attrs);

/// Workspace bytes the cost model charges a conv (cuDNN-style): one
/// sample's im2col column matrix. The CPU kernels below hold one column
/// matrix per call, for a chunk of samples: at most max(1 MiB, this).
std::size_t conv_workspace_bytes(const Shape& input_shape,
                                 const ConvAttrs& attrs);

/// Forward, one schedule for every shape: the batch is cut into chunks,
/// each the fewest samples whose output pixels reach ~256 GEMM columns
/// (within the 1 MiB column-matrix cap). Per chunk and group, im2col
/// lowers the chunk side by side into one (Cg*K, chunk*pixels) matrix and
/// a single GEMM writes Y straight into the NCHW output. A pointwise
/// conv (1x1, stride 1, unpadded) skips im2col: the GEMM reads the chunk
/// of x in place. Threads split the im2col rows and the GEMM's output
/// rows. Every output keeps the reference's k-chain, so the result is
/// bit-identical to conv_forward_ref at any thread count.
void conv_forward(const Tensor& x, const Tensor& w, const Tensor* bias,
                  Tensor& y, const ConvAttrs& attrs,
                  KernelContext& ctx = KernelContext::serial());

/// Backward on the same chunks: dW = dY * col^T reads dY in place and
/// runs each dW element's chain sample-major over the chunk's columns,
/// which is the reference's per-sample accumulation order (the first
/// chunk overwrites dW, later ones accumulate); then (unless dx is null,
/// for a network input) the column gradient W^T * dY overwrites the same
/// buffer and col2im scatters it into the chunk's zeroed dX. A pointwise
/// conv reads x in place and writes W^T * dY straight into dX. dbias
/// sums per channel, samples in order. Every element of dw, *dx and
/// *dbias is written; their old contents are never read. Bit-identical
/// to conv_backward_ref at any thread count.
void conv_backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                   Tensor* dx, Tensor& dw, Tensor* dbias,
                   const ConvAttrs& attrs,
                   KernelContext& ctx = KernelContext::serial());

// --- scalar reference oracles (single-threaded, naive matmul) ---
void conv_forward_ref(const Tensor& x, const Tensor& w, const Tensor* bias,
                      Tensor& y, const ConvAttrs& attrs);
void conv_backward_ref(const Tensor& x, const Tensor& w, const Tensor& dy,
                       Tensor* dx, Tensor& dw, Tensor* dbias,
                       const ConvAttrs& attrs);

}  // namespace pooch::kernels
