// The kernel determinism contract: every fast kernel must produce
// bit-identical output to its scalar *_ref oracle at ANY thread count.
// This is what lets the out-of-core runtime swap/recompute/parallelize
// freely while test_equivalence demands exact equality with the in-core
// run (see docs/KERNELS.md for the argument).
//
// The output contract rides along: a fast kernel writes every element of
// its outputs and reads none of their old contents, because the data
// backend hands kernels recycled buffers. So every fast kernel here
// writes into outputs pre-filled with quiet NaN, where a skipped or
// accumulated-into element shows as a bit difference from the oracle
// (whose outputs start zeroed).
//
// The shape corpus deliberately includes sizes off the GEMM tile grid
// (odd m/k/n, single rows/columns), exact block boundaries, strided and
// padded and grouped convolutions, batches that split into several
// lowered sample chunks with a remainder, and tensors straddling the
// elementwise grain — the places a blocked or partitioned implementation
// would diverge from the naive loops if the partitioning were wrong.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "kernels/activations.hpp"
#include "kernels/batchnorm.hpp"
#include "kernels/conv.hpp"
#include "kernels/dropout.hpp"
#include "kernels/elementwise.hpp"
#include "kernels/fc.hpp"
#include "kernels/kernel_context.hpp"
#include "kernels/matmul.hpp"
#include "kernels/pool.hpp"
#include "kernels/softmax.hpp"
#include "testing_util.hpp"

namespace pooch::kernels {
namespace {

using testing::random_tensor;

/// An output buffer of unspecified content: every element a quiet NaN.
Tensor nan_tensor(const Shape& shape) {
  Tensor t(shape);
  t.fill(std::numeric_limits<float>::quiet_NaN());
  return t;
}

void expect_bits(const Tensor& got, const Tensor& want,
                 const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    std::uint32_t gb = 0, wb = 0;
    const float gv = got[i], wv = want[i];
    std::memcpy(&gb, &gv, sizeof(gb));
    std::memcpy(&wb, &wv, sizeof(wb));
    ASSERT_EQ(gb, wb) << what << ": first bit difference at flat index " << i
                      << " (" << gv << " vs " << wv << ")";
  }
}

// ---------- fast-vs-ref bit identity, parameterized over thread count ----

class KernelBitIdentity : public ::testing::TestWithParam<int> {
 protected:
  KernelBitIdentity() : ctx_(GetParam()) {}
  KernelContext ctx_;
};

INSTANTIATE_TEST_SUITE_P(Threads, KernelBitIdentity,
                         ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "t" + std::to_string(info.param);
                         });

TEST_P(KernelBitIdentity, MatmulAllVariants) {
  struct Case {
    std::int64_t m, k, n;
  };
  // Single elements, odd everything, exact micro/cache-tile multiples,
  // block-boundary crossers, degenerate single-column output, and GEMMs
  // big enough to fan out over threads (one of them a single column
  // panel, whose full row panels read A in place).
  std::vector<Case> cases = {{1, 1, 1},       {3, 7, 5},     {4, 16, 16},
                             {5, 17, 33},     {64, 256, 240}, {67, 129, 241},
                             {2, 300, 1},     {131, 600, 32}, {200, 257, 33}};
  // On and around the 8 x 32 register tile, with k inside and across
  // the 256-deep k block.
  for (std::int64_t m : {8, 9, 15}) {
    for (std::int64_t n : {31, 32, 33, 64}) {
      for (std::int64_t k : {40, 257}) cases.push_back({m, k, n});
    }
  }
  std::uint64_t seed = 100;
  for (const Case& c : cases) {
    const std::string tag = "m" + std::to_string(c.m) + "k" +
                            std::to_string(c.k) + "n" + std::to_string(c.n);
    const Tensor a = random_tensor(Shape{c.m, c.k}, seed++);
    const Tensor at = random_tensor(Shape{c.k, c.m}, seed++);
    const Tensor b = random_tensor(Shape{c.k, c.n}, seed++);
    const Tensor bt = random_tensor(Shape{c.n, c.k}, seed++);
    const Tensor init = random_tensor(Shape{c.m, c.n}, seed++);

    Tensor got = nan_tensor(Shape{c.m, c.n});
    Tensor want(Shape{c.m, c.n});
    matmul(a.data(), b.data(), got.data(), c.m, c.k, c.n, ctx_);
    matmul_ref(a.data(), b.data(), want.data(), c.m, c.k, c.n);
    expect_bits(got, want, "matmul " + tag);

    got = init;
    want = init;
    matmul_acc(a.data(), b.data(), got.data(), c.m, c.k, c.n, ctx_);
    matmul_acc_ref(a.data(), b.data(), want.data(), c.m, c.k, c.n);
    expect_bits(got, want, "matmul_acc " + tag);

    got = nan_tensor(Shape{c.m, c.n});
    matmul_at(at.data(), b.data(), got.data(), c.m, c.k, c.n, ctx_);
    matmul_at_ref(at.data(), b.data(), want.data(), c.m, c.k, c.n);
    expect_bits(got, want, "matmul_at " + tag);

    got = nan_tensor(Shape{c.m, c.n});
    matmul_bt(a.data(), bt.data(), got.data(), c.m, c.k, c.n, ctx_);
    matmul_bt_ref(a.data(), bt.data(), want.data(), c.m, c.k, c.n);
    expect_bits(got, want, "matmul_bt " + tag);

    got = init;
    want = init;
    matmul_bt_acc(a.data(), bt.data(), got.data(), c.m, c.k, c.n, ctx_);
    matmul_bt_acc_ref(a.data(), bt.data(), want.data(), c.m, c.k, c.n);
    expect_bits(got, want, "matmul_bt_acc " + tag);
  }
}

TEST_P(KernelBitIdentity, ConvForwardBackward) {
  struct Case {
    const char* name;
    Shape xs;
    ConvAttrs attrs;
    bool want_dx;
  };
  // The batch is lowered in chunks of the fewest samples whose output
  // pixels reach 256 GEMM columns, capped at 2^18 column-matrix floats,
  // and balanced; the comments give each case's chunks.
  const Case cases[] = {
      // 81 pixels: two chunks of 4, GEMM tiles straddling samples.
      {"chunks_of_4", Shape{8, 4, 9, 9}, ConvAttrs::conv2d(6, 3, 1, 1), true},
      // One sample of 49 pixels: a full and a ragged column tile.
      {"single_sample", Shape{1, 3, 13, 13}, ConvAttrs::conv2d(5, 3, 2, 1),
       true},
      // 400 pixels: one sample per chunk, GEMM rows split over threads.
      {"chunk_of_1", Shape{2, 16, 20, 20}, ConvAttrs::conv2d(32, 3, 1, 1),
       true},
      // 2x2 outputs, batch 67: chunks of 34 + 33.
      {"out2x2_b67", Shape{67, 6, 4, 4}, ConvAttrs::conv2d(10, 3), true},
      // 1x1 outputs of a 4608-row column matrix: the float cap allows 56
      // samples, so batch 67 runs as 34 + 33.
      {"out1x1_b67", Shape{67, 512, 3, 3}, ConvAttrs::conv2d(24, 3), true},
      // ResNet-style stride-2 1x1 downsampling, no bias: 5 samples of 16
      // pixels in one chunk.
      {"down1x1_s2", Shape{5, 16, 8, 8},
       ConvAttrs::conv2d(32, 1, 2, 0, 1, /*bias=*/false), true},
      {"grouped", Shape{2, 4, 8, 8}, ConvAttrs::conv2d(4, 3, 1, 1, 2), true},
      // 4 groups of 3 output channels over one 12-sample chunk.
      {"grouped_chunked", Shape{12, 8, 5, 5},
       ConvAttrs::conv2d(12, 3, 1, 0, 4), true},
      {"no_bias_nodx", Shape{2, 3, 7, 7},
       ConvAttrs::conv2d(4, 2, 2, 0, 1, /*bias=*/false), false},
      // No input gradient over two chunks of 20.
      {"nodx_chunked", Shape{40, 4, 6, 6}, ConvAttrs::conv2d(8, 3, 2, 1),
       false},
      {"conv3d", Shape{2, 2, 5, 5, 5}, ConvAttrs::conv3d(3, 3, 1, 1), true},
      // 2x2x2 outputs: 6 samples in one chunk.
      {"conv3d_chunked", Shape{6, 3, 4, 4, 4}, ConvAttrs::conv3d(5, 3, 2, 1),
       true},
      // Pointwise (1x1, stride 1, unpadded): the GEMMs run on the NCHW
      // tensors in place. 81 pixels: two chunks of 4.
      {"pointwise", Shape{8, 16, 9, 9}, ConvAttrs::conv2d(24, 1), true},
      // 9 pixels, batch 67: chunks of 23 + 23 + 21.
      {"pointwise_chunked", Shape{67, 12, 3, 3},
       ConvAttrs::conv2d(20, 1, 1, 0, 1, /*bias=*/false), true},
      // 100 pixels: chunks of 3 + 3 + 1 samples, 300 columns each, so
      // dW's second 256-deep k block starts inside a sample.
      {"pointwise_wide", Shape{7, 5, 10, 10}, ConvAttrs::conv2d(6, 1), true},
      // 4 groups over in-place operands offset by a group's channels.
      {"pointwise_grouped", Shape{6, 8, 5, 5}, ConvAttrs::conv2d(12, 1, 1, 0, 4),
       true},
      // 300 input channels: the forward k chain crosses the 256-deep
      // block and dX has 300 rows; two chunks of 12.
      {"pointwise_deep", Shape{24, 300, 4, 4}, ConvAttrs::conv2d(40, 1), true},
      {"pointwise_nodx", Shape{5, 6, 7, 7}, ConvAttrs::conv2d(10, 1), false},
      {"pointwise3d", Shape{3, 4, 3, 4, 5}, ConvAttrs::conv3d(6, 1), true},
  };
  std::uint64_t seed = 500;
  for (const Case& c : cases) {
    const Tensor x = random_tensor(c.xs, seed++);
    const Tensor w = random_tensor(conv_weight_shape(c.xs, c.attrs), seed++);
    const Shape ys = conv_output_shape(c.xs, c.attrs);
    Tensor bias;
    if (c.attrs.has_bias) {
      bias = random_tensor(Shape{c.attrs.out_channels}, seed++);
    }
    const Tensor* bp = c.attrs.has_bias ? &bias : nullptr;

    Tensor y = nan_tensor(ys), y_ref(ys);
    conv_forward(x, w, bp, y, c.attrs, ctx_);
    conv_forward_ref(x, w, bp, y_ref, c.attrs);
    expect_bits(y, y_ref, std::string("conv_forward ") + c.name);

    const Tensor dy = random_tensor(ys, seed++);
    Tensor dx = nan_tensor(c.xs), dx_ref(c.xs);
    Tensor dw = nan_tensor(w.shape()), dw_ref(w.shape());
    Tensor dbias, dbias_ref;
    if (c.attrs.has_bias) {
      dbias = nan_tensor(Shape{c.attrs.out_channels});
      dbias_ref = Tensor(Shape{c.attrs.out_channels});
    }
    conv_backward(x, w, dy, c.want_dx ? &dx : nullptr, dw,
                  c.attrs.has_bias ? &dbias : nullptr, c.attrs, ctx_);
    conv_backward_ref(x, w, dy, c.want_dx ? &dx_ref : nullptr, dw_ref,
                      c.attrs.has_bias ? &dbias_ref : nullptr, c.attrs);
    expect_bits(dw, dw_ref, std::string("conv dw ") + c.name);
    if (c.want_dx) expect_bits(dx, dx_ref, std::string("conv dx ") + c.name);
    if (c.attrs.has_bias) {
      expect_bits(dbias, dbias_ref, std::string("conv dbias ") + c.name);
    }
  }
}

TEST_P(KernelBitIdentity, FullyConnected) {
  struct Case {
    std::int64_t batch, in, out;
    bool bias, want_dx;
  };
  const Case cases[] = {{5, 33, 17, true, true},
                        {1, 7, 3, false, true},
                        {8, 64, 10, true, false}};
  std::uint64_t seed = 900;
  for (const Case& c : cases) {
    FcAttrs attrs;
    attrs.out_features = c.out;
    attrs.has_bias = c.bias;
    const std::string tag = "fc" + std::to_string(c.batch) + "x" +
                            std::to_string(c.in) + "x" + std::to_string(c.out);
    const Tensor x = random_tensor(Shape{c.batch, c.in}, seed++);
    const Tensor w = random_tensor(Shape{c.out, c.in}, seed++);
    Tensor bias;
    if (c.bias) bias = random_tensor(Shape{c.out}, seed++);
    const Tensor* bp = c.bias ? &bias : nullptr;

    Tensor y = nan_tensor(Shape{c.batch, c.out}), y_ref(Shape{c.batch, c.out});
    fc_forward(x, w, bp, y, attrs, ctx_);
    fc_forward_ref(x, w, bp, y_ref, attrs);
    expect_bits(y, y_ref, tag + " forward");

    const Tensor dy = random_tensor(Shape{c.batch, c.out}, seed++);
    Tensor dx = nan_tensor(x.shape()), dx_ref(x.shape());
    Tensor dw = nan_tensor(w.shape()), dw_ref(w.shape());
    Tensor dbias, dbias_ref;
    if (c.bias) {
      dbias = nan_tensor(Shape{c.out});
      dbias_ref = Tensor(Shape{c.out});
    }
    fc_backward(x, w, dy, c.want_dx ? &dx : nullptr, dw,
                c.bias ? &dbias : nullptr, attrs, ctx_);
    fc_backward_ref(x, w, dy, c.want_dx ? &dx_ref : nullptr, dw_ref,
                    c.bias ? &dbias_ref : nullptr, attrs);
    expect_bits(dw, dw_ref, tag + " dw");
    if (c.want_dx) expect_bits(dx, dx_ref, tag + " dx");
    if (c.bias) expect_bits(dbias, dbias_ref, tag + " dbias");
  }
}

TEST_P(KernelBitIdentity, BatchNorm) {
  const Shape shapes[] = {Shape{4, 5, 6, 7}, Shape{2, 3, 4, 4, 4},
                          Shape{7, 3}};
  std::uint64_t seed = 1300;
  for (const Shape& xs : shapes) {
    const std::int64_t channels = xs[1];
    BatchNormAttrs attrs;
    const Tensor x = random_tensor(xs, seed++);
    const Tensor gamma = random_tensor(Shape{channels}, seed++, 0.5f, 1.5f);
    const Tensor beta = random_tensor(Shape{channels}, seed++);
    Tensor y = nan_tensor(xs), y_ref(xs);
    batchnorm_forward(x, gamma, beta, y, attrs, ctx_);
    batchnorm_forward_ref(x, gamma, beta, y_ref, attrs);
    expect_bits(y, y_ref, "batchnorm forward");

    const Tensor dy = random_tensor(xs, seed++);
    Tensor dx = nan_tensor(xs), dx_ref(xs);
    Tensor dgamma = nan_tensor(Shape{channels}), dgamma_ref(Shape{channels});
    Tensor dbeta = nan_tensor(Shape{channels}), dbeta_ref(Shape{channels});
    batchnorm_backward(x, gamma, dy, &dx, dgamma, dbeta, attrs, ctx_);
    batchnorm_backward_ref(x, gamma, dy, &dx_ref, dgamma_ref, dbeta_ref,
                           attrs);
    expect_bits(dx, dx_ref, "batchnorm dx");
    expect_bits(dgamma, dgamma_ref, "batchnorm dgamma");
    expect_bits(dbeta, dbeta_ref, "batchnorm dbeta");
  }
}

TEST_P(KernelBitIdentity, Pooling) {
  struct Case {
    const char* name;
    Shape xs;
    PoolAttrs attrs;
  };
  const Case cases[] = {
      {"max2d_pad", Shape{2, 3, 9, 9}, PoolAttrs::pool2d(PoolMode::kMax, 3, 2, 1)},
      {"avg2d", Shape{3, 2, 8, 8}, PoolAttrs::pool2d(PoolMode::kAvg, 2, 2)},
      {"max3d", Shape{1, 2, 6, 6, 6}, PoolAttrs::pool3d(PoolMode::kMax, 2, 2)},
  };
  std::uint64_t seed = 1700;
  for (const Case& c : cases) {
    const Tensor x = random_tensor(c.xs, seed++);
    const Shape ys = pool_output_shape(c.xs, c.attrs);
    Tensor y = nan_tensor(ys), y_ref(ys);
    pool_forward(x, y, c.attrs, ctx_);
    pool_forward_ref(x, y_ref, c.attrs);
    expect_bits(y, y_ref, std::string("pool forward ") + c.name);

    const Tensor dy = random_tensor(ys, seed++);
    Tensor dx = nan_tensor(c.xs), dx_ref(c.xs);
    pool_backward(x, dy, dx, c.attrs, ctx_);
    pool_backward_ref(x, dy, dx_ref, c.attrs);
    expect_bits(dx, dx_ref, std::string("pool backward ") + c.name);
  }

  const Shape gs{3, 4, 5, 7};
  const Tensor x = random_tensor(gs, seed++);
  Tensor y = nan_tensor(global_avg_pool_output_shape(gs));
  Tensor y_ref(global_avg_pool_output_shape(gs));
  global_avg_pool_forward(x, y, ctx_);
  global_avg_pool_forward_ref(x, y_ref);
  expect_bits(y, y_ref, "global_avg_pool forward");
  const Tensor dy = random_tensor(y.shape(), seed++);
  Tensor dx = nan_tensor(gs), dx_ref(gs);
  global_avg_pool_backward(gs, dy, dx, ctx_);
  global_avg_pool_backward_ref(gs, dy, dx_ref);
  expect_bits(dx, dx_ref, "global_avg_pool backward");
}

TEST_P(KernelBitIdentity, EltwiseActivationsDropoutSoftmax) {
  // Big enough to straddle the elementwise/dropout grains (2^14 / 2^13).
  const Shape flat{1 << 16};
  std::uint64_t seed = 2100;
  {
    const Tensor x = random_tensor(flat, seed++);
    Tensor y = nan_tensor(flat), y_ref(flat);
    relu_forward(x, y, ctx_);
    relu_forward_ref(x, y_ref);
    expect_bits(y, y_ref, "relu forward");
    const Tensor dy = random_tensor(flat, seed++);
    Tensor dx = nan_tensor(flat), dx_ref(flat);
    relu_backward(y, dy, dx, ctx_);
    relu_backward_ref(y_ref, dy, dx_ref);
    expect_bits(dx, dx_ref, "relu backward");
  }
  {
    const Tensor a = random_tensor(flat, seed++);
    const Tensor b = random_tensor(flat, seed++);
    Tensor y = nan_tensor(flat), y_ref(flat);
    add_forward(a, b, y, ctx_);
    add_forward_ref(a, b, y_ref);
    expect_bits(y, y_ref, "add forward");
    Tensor da = nan_tensor(flat), db = nan_tensor(flat), da_ref(flat),
           db_ref(flat);
    add_backward(y, da, db, ctx_);
    add_backward_ref(y_ref, da_ref, db_ref);
    expect_bits(da, da_ref, "add backward da");
    expect_bits(db, db_ref, "add backward db");
  }
  {
    DropoutAttrs attrs;
    attrs.rate = 0.3f;
    attrs.key = 77;
    const Tensor x = random_tensor(flat, seed++);
    Tensor y = nan_tensor(flat), y_ref(flat);
    dropout_forward(x, y, attrs, /*iteration=*/5, ctx_);
    dropout_forward_ref(x, y_ref, attrs, /*iteration=*/5);
    expect_bits(y, y_ref, "dropout forward");
    const Tensor dy = random_tensor(flat, seed++);
    Tensor dx = nan_tensor(flat), dx_ref(flat);
    dropout_backward(dy, dx, attrs, /*iteration=*/5, ctx_);
    dropout_backward_ref(dy, dx_ref, attrs, /*iteration=*/5);
    expect_bits(dx, dx_ref, "dropout backward");
  }
  {
    const Shape ls{9, 13};
    const Tensor logits = random_tensor(ls, seed++, -4.0f, 4.0f);
    std::vector<std::int64_t> labels;
    for (std::int64_t n = 0; n < ls[0]; ++n) labels.push_back(n % ls[1]);
    Tensor loss = nan_tensor(Shape{1}), loss_ref(Shape{1});
    softmax_xent_forward(logits, labels, loss, ctx_);
    softmax_xent_forward_ref(logits, labels, loss_ref);
    expect_bits(loss, loss_ref, "softmax loss");
    Tensor dloss(Shape{1});
    dloss[0] = 1.0f;
    Tensor dlogits = nan_tensor(ls), dlogits_ref(ls);
    softmax_xent_backward(logits, labels, dloss, dlogits, ctx_);
    softmax_xent_backward_ref(logits, labels, dloss, dlogits_ref);
    expect_bits(dlogits, dlogits_ref, "softmax dlogits");
  }
}

// concat/flatten have no scalar *_ref (pure copies); the oracle is the
// serial context.
TEST_P(KernelBitIdentity, ConcatFlattenMatchSerial) {
  KernelContext serial(1);
  std::uint64_t seed = 2500;
  const Tensor a = random_tensor(Shape{2, 3, 4, 4}, seed++);
  const Tensor b = random_tensor(Shape{2, 5, 4, 4}, seed++);
  const std::vector<const Tensor*> inputs{&a, &b};
  const Shape ys = concat_output_shape(inputs);
  Tensor y = nan_tensor(ys), y_ref(ys);
  concat_forward(inputs, y, ctx_);
  concat_forward(inputs, y_ref, serial);
  expect_bits(y, y_ref, "concat forward");

  const Tensor dy = random_tensor(ys, seed++);
  Tensor da = nan_tensor(a.shape()), db = nan_tensor(b.shape());
  Tensor da_ref(a.shape()), db_ref(b.shape());
  std::vector<Tensor*> douts{&da, &db};
  std::vector<Tensor*> douts_ref{&da_ref, &db_ref};
  concat_backward(dy, douts, ctx_);
  concat_backward(dy, douts_ref, serial);
  expect_bits(da, da_ref, "concat backward da");
  expect_bits(db, db_ref, "concat backward db");

  const Shape xs{4, 3, 5, 5};
  const Tensor x = random_tensor(xs, seed++);
  Tensor f = nan_tensor(Shape{4, 75}), f_ref(Shape{4, 75});
  flatten_forward(x, f, ctx_);
  flatten_forward(x, f_ref, serial);
  expect_bits(f, f_ref, "flatten forward");
  const Tensor df = random_tensor(f.shape(), seed++);
  Tensor dx = nan_tensor(xs), dx_ref(xs);
  flatten_backward(xs, df, dx, ctx_);
  flatten_backward(xs, df, dx_ref, serial);
  expect_bits(dx, dx_ref, "flatten backward");
}

// ---------- parallel_for scheduling primitive ----------

TEST(ParallelFor, NullPoolRunsInlineOnce) {
  int calls = 0;
  parallel_for(nullptr, 100, 1,
               [&](std::int64_t i0, std::int64_t i1, int slot) {
                 ++calls;
                 EXPECT_EQ(i0, 0);
                 EXPECT_EQ(i1, 100);
                 EXPECT_EQ(slot, 0);
               });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, EmptyRangeNeverCalls) {
  KernelContext ctx(4);
  int calls = 0;
  parallel_for(ctx.pool(), 0, 1,
               [&](std::int64_t, std::int64_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(parallel_blocks(ctx.pool(), 0, 1), 0);
}

TEST(ParallelFor, GrainLargerThanRangeRunsInline) {
  KernelContext ctx(4);
  int calls = 0;
  parallel_for(ctx.pool(), 10, 100,
               [&](std::int64_t i0, std::int64_t i1, int slot) {
                 ++calls;
                 EXPECT_EQ(i0, 0);
                 EXPECT_EQ(i1, 10);
                 EXPECT_EQ(slot, 0);
               });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, BlocksCoverRangeExactlyWithDenseSlots) {
  KernelContext ctx(8);
  const std::int64_t n = 1000;
  const std::int64_t grain = 7;
  std::vector<int> hits(static_cast<std::size_t>(n), 0);
  std::vector<int> slots;
  std::mutex mu;
  parallel_for(ctx.pool(), n, grain,
               [&](std::int64_t i0, std::int64_t i1, int slot) {
                 std::lock_guard<std::mutex> lock(mu);
                 ASSERT_LT(i0, i1);
                 slots.push_back(slot);
                 for (std::int64_t i = i0; i < i1; ++i) {
                   ++hits[static_cast<std::size_t>(i)];
                 }
               });
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1)
        << "index " << i << " covered " << hits[static_cast<std::size_t>(i)]
        << " times";
  }
  const int blocks = parallel_blocks(ctx.pool(), n, grain);
  ASSERT_EQ(static_cast<int>(slots.size()), blocks);
  std::sort(slots.begin(), slots.end());
  for (int s = 0; s < blocks; ++s) EXPECT_EQ(slots[static_cast<std::size_t>(s)], s);
}

TEST(ParallelFor, BlockCountRespectsGrainAndPool) {
  KernelContext ctx(4);
  // ceil(n/grain) caps the fan-out below the pool size...
  EXPECT_EQ(parallel_blocks(ctx.pool(), 10, 5), 2);
  // ...and the pool size caps it when the range is large.
  EXPECT_EQ(parallel_blocks(ctx.pool(), 1 << 20, 1), ctx.threads());
  // A null pool is always one inline block.
  EXPECT_EQ(parallel_blocks(nullptr, 1 << 20, 1), 1);
}

TEST(ParallelFor, ExceptionsPropagateToCaller) {
  KernelContext ctx(4);
  EXPECT_THROW(
      parallel_for(ctx.pool(), 1 << 16, 1,
                   [&](std::int64_t, std::int64_t, int) {
                     throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

// ---------- KernelContext scratch arenas ----------

TEST(KernelContextScratch, SlotsAndArenasNeverAlias) {
  KernelContext ctx(2);
  float* s0c = ctx.scratch(0, KernelContext::kColArena, 64);
  float* s1c = ctx.scratch(1, KernelContext::kColArena, 64);
  float* s0g = ctx.scratch(0, KernelContext::kGemmArena, 64);
  EXPECT_NE(s0c, s1c);
  EXPECT_NE(s0c, s0g);
  // Growth returns a usable buffer of the new size; shrinking requests
  // keep the old capacity (no reallocation churn across kernel calls).
  s0c[63] = 1.0f;
  float* grown = ctx.scratch(0, KernelContext::kColArena, 1 << 16);
  grown[(1 << 16) - 1] = 2.0f;
  float* shrunk = ctx.scratch(0, KernelContext::kColArena, 8);
  EXPECT_EQ(shrunk, grown);
}

TEST(KernelContextScratch, SerialContextIsSingleThreaded) {
  KernelContext& s = KernelContext::serial();
  EXPECT_EQ(s.threads(), 1);
  EXPECT_EQ(s.pool(), nullptr);
}

}  // namespace
}  // namespace pooch::kernels
