#include <gtest/gtest.h>

#include "kernels/activations.hpp"
#include "kernels/batchnorm.hpp"
#include "kernels/dropout.hpp"
#include "kernels/elementwise.hpp"
#include "kernels/fc.hpp"
#include "kernels/pool.hpp"
#include "kernels/softmax.hpp"
#include "obs/stats.hpp"
#include "testing_util.hpp"

namespace pooch::kernels {
namespace {

using testing::random_tensor;

// ---------- pooling ----------

TEST(MaxPool2d, KnownValues) {
  PoolAttrs a = PoolAttrs::pool2d(PoolMode::kMax, 2, 2);
  Tensor x(Shape{1, 1, 4, 4});
  for (int i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  Tensor y(pool_output_shape(x.shape(), a));
  pool_forward(x, y, a);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[1], 7.0f);
  EXPECT_FLOAT_EQ(y[2], 13.0f);
  EXPECT_FLOAT_EQ(y[3], 15.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  PoolAttrs a = PoolAttrs::pool2d(PoolMode::kMax, 2, 2);
  Tensor x(Shape{1, 1, 2, 2});
  x[0] = 1;
  x[1] = 9;
  x[2] = 3;
  x[3] = 2;
  Tensor dy(Shape{1, 1, 1, 1});
  dy[0] = 5.0f;
  Tensor dx(x.shape());
  pool_backward(x, dy, dx, a);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 5.0f);
  EXPECT_FLOAT_EQ(dx[3], 0.0f);
}

TEST(AvgPool2d, ExcludesPadding) {
  PoolAttrs a = PoolAttrs::pool2d(PoolMode::kAvg, 2, 2, 1);
  Tensor x(Shape{1, 1, 2, 2});
  x.fill(4.0f);
  Tensor y(pool_output_shape(x.shape(), a));
  pool_forward(x, y, a);
  // Corner windows cover exactly one valid element -> average is 4.
  EXPECT_FLOAT_EQ(y[0], 4.0f);
}

struct PoolCase {
  const char* name;
  int rank;
  PoolMode mode;
  std::int64_t extent, kernel, stride, pad;

  friend void PrintTo(const PoolCase& c, std::ostream* os) { *os << c.name; }
};

class PoolGradient : public ::testing::TestWithParam<PoolCase> {};

TEST_P(PoolGradient, MatchesNumeric) {
  const PoolCase& pc = GetParam();
  PoolAttrs a = pc.rank == 2
                    ? PoolAttrs::pool2d(pc.mode, pc.kernel, pc.stride, pc.pad)
                    : PoolAttrs::pool3d(pc.mode, pc.kernel, pc.stride, pc.pad);
  Shape xs = pc.rank == 2 ? Shape{2, 2, pc.extent, pc.extent}
                          : Shape{1, 2, pc.extent, pc.extent, pc.extent};
  // Distinct values so the max argmax is stable under the probe epsilon.
  Tensor x(xs);
  Rng rng(44);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(i % 97) * 0.1f +
           static_cast<float>(rng.uniform(0.0, 0.01));
  }
  const Shape ys = pool_output_shape(xs, a);
  Tensor probe = random_tensor(ys, 45);
  Tensor dx(xs);
  pool_backward(x, probe, dx, a);
  auto fwd = [&](const Tensor& xin) {
    Tensor y(ys);
    pool_forward(xin, y, a);
    return y;
  };
  testing::check_gradient(x, probe, fwd, dx, 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PoolGradient,
    ::testing::Values(PoolCase{"max2d", 2, PoolMode::kMax, 6, 2, 2, 0},
                      PoolCase{"max2d_pad", 2, PoolMode::kMax, 5, 3, 2, 1},
                      PoolCase{"avg2d", 2, PoolMode::kAvg, 6, 2, 2, 0},
                      PoolCase{"avg2d_pad", 2, PoolMode::kAvg, 5, 3, 2, 1},
                      PoolCase{"max3d", 3, PoolMode::kMax, 4, 2, 2, 0},
                      PoolCase{"avg3d", 3, PoolMode::kAvg, 4, 2, 2, 0}),
    testing::ParamName());

TEST(GlobalAvgPool, ForwardAndGradient) {
  Tensor x = random_tensor(Shape{2, 3, 4, 4}, 50);
  Tensor y(global_avg_pool_output_shape(x.shape()));
  global_avg_pool_forward(x, y);
  double manual = 0.0;
  for (int i = 0; i < 16; ++i) manual += x[i];
  EXPECT_NEAR(y[0], manual / 16.0, 1e-5);

  Tensor probe = random_tensor(y.shape(), 51);
  Tensor dx(x.shape());
  global_avg_pool_backward(x.shape(), probe, dx);
  auto fwd = [&](const Tensor& xin) {
    Tensor out(y.shape());
    global_avg_pool_forward(xin, out);
    return out;
  };
  testing::check_gradient(x, probe, fwd, dx);
}

// ---------- batchnorm ----------

TEST(BatchNorm, NormalizesPerChannel) {
  BatchNormAttrs a;
  Tensor x = random_tensor(Shape{4, 3, 5, 5}, 60, -3.0f, 7.0f);
  Tensor gamma(Shape{3}), beta(Shape{3});
  gamma.fill(1.0f);
  beta.zero();
  Tensor y(x.shape());
  batchnorm_forward(x, gamma, beta, y, a);
  // Per-channel mean ~0 and variance ~1.
  for (int c = 0; c < 3; ++c) {
    double mean = 0.0, var = 0.0;
    int count = 0;
    for (int n = 0; n < 4; ++n) {
      for (int i = 0; i < 25; ++i) {
        mean += y[(n * 3 + c) * 25 + i];
        ++count;
      }
    }
    mean /= count;
    for (int n = 0; n < 4; ++n) {
      for (int i = 0; i < 25; ++i) {
        const double d = y[(n * 3 + c) * 25 + i] - mean;
        var += d * d;
      }
    }
    var /= count;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, GradientsMatchNumeric) {
  BatchNormAttrs a;
  Tensor x = random_tensor(Shape{3, 2, 3, 3}, 61);
  Tensor gamma = random_tensor(Shape{2}, 62, 0.5f, 1.5f);
  Tensor beta = random_tensor(Shape{2}, 63);
  Tensor probe = random_tensor(x.shape(), 64);

  Tensor dx(x.shape()), dgamma(Shape{2}), dbeta(Shape{2});
  batchnorm_backward(x, gamma, probe, &dx, dgamma, dbeta, a);

  auto fwd_x = [&](const Tensor& xin) {
    Tensor y(xin.shape());
    batchnorm_forward(xin, gamma, beta, y, a);
    return y;
  };
  testing::check_gradient(x, probe, fwd_x, dx, 1e-3f);

  auto fwd_g = [&](const Tensor& gin) {
    Tensor y(x.shape());
    batchnorm_forward(x, gin, beta, y, a);
    return y;
  };
  testing::check_gradient(gamma, probe, fwd_g, dgamma, 1e-3f);

  auto fwd_b = [&](const Tensor& bin) {
    Tensor y(x.shape());
    batchnorm_forward(x, gamma, bin, y, a);
    return y;
  };
  testing::check_gradient(beta, probe, fwd_b, dbeta, 1e-3f);
}

TEST(BatchNorm, BackwardRecomputesStatsFromInput) {
  // The invariant the recompute planner relies on: backward consumes only
  // (x, gamma, dy) — run it twice from the same inputs, expect identical
  // results (no hidden cached state).
  BatchNormAttrs a;
  Tensor x = random_tensor(Shape{2, 2, 4, 4}, 65);
  Tensor gamma(Shape{2});
  gamma.fill(1.2f);
  Tensor dy = random_tensor(x.shape(), 66);
  Tensor dx1(x.shape()), dx2(x.shape());
  Tensor dg1(Shape{2}), db1(Shape{2}), dg2(Shape{2}), db2(Shape{2});
  batchnorm_backward(x, gamma, dy, &dx1, dg1, db1, a);
  batchnorm_backward(x, gamma, dy, &dx2, dg2, db2, a);
  EXPECT_TRUE(bit_equal(dx1, dx2));
  EXPECT_TRUE(bit_equal(dg1, dg2));
}

// ---------- relu ----------

TEST(ReLU, ForwardClampsAndBackwardMasks) {
  Tensor x(Shape{4});
  x[0] = -1.0f;
  x[1] = 0.0f;
  x[2] = 2.0f;
  x[3] = -0.5f;
  Tensor y(x.shape());
  relu_forward(x, y);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  Tensor dy(x.shape());
  dy.fill(3.0f);
  Tensor dx(x.shape());
  relu_backward(y, dy, dx);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[2], 3.0f);
}

// ---------- fully connected ----------

TEST(Fc, KnownValues) {
  FcAttrs a;
  a.out_features = 2;
  Tensor x(Shape{1, 3});
  x[0] = 1;
  x[1] = 2;
  x[2] = 3;
  Tensor w(Shape{2, 3});
  for (int i = 0; i < 6; ++i) w[i] = static_cast<float>(i + 1);
  Tensor b(Shape{2});
  b[0] = 0.5f;
  b[1] = -0.5f;
  Tensor y(Shape{1, 2});
  fc_forward(x, w, &b, y, a);
  EXPECT_FLOAT_EQ(y[0], 1 + 4 + 9 + 0.5f);
  EXPECT_FLOAT_EQ(y[1], 4 + 10 + 18 - 0.5f);
}

TEST(Fc, GradientsMatchNumeric) {
  FcAttrs a;
  a.out_features = 4;
  Tensor x = random_tensor(Shape{3, 5}, 70);
  Tensor w = random_tensor(fc_weight_shape(x.shape(), a), 71);
  Tensor b = random_tensor(Shape{4}, 72);
  Tensor probe = random_tensor(Shape{3, 4}, 73);
  Tensor dx(x.shape()), dw(w.shape()), db(b.shape());
  fc_backward(x, w, probe, &dx, dw, &db, a);
  auto fwd_x = [&](const Tensor& xin) {
    Tensor y(Shape{3, 4});
    fc_forward(xin, w, &b, y, a);
    return y;
  };
  testing::check_gradient(x, probe, fwd_x, dx);
  auto fwd_w = [&](const Tensor& win) {
    Tensor y(Shape{3, 4});
    fc_forward(x, win, &b, y, a);
    return y;
  };
  testing::check_gradient(w, probe, fwd_w, dw);
}

TEST(Fc, FlattensHigherRankInputs) {
  FcAttrs a;
  a.out_features = 3;
  Tensor x = random_tensor(Shape{2, 2, 2, 2}, 74);
  EXPECT_EQ(fc_output_shape(x.shape(), a), (Shape{2, 3}));
  EXPECT_EQ(fc_weight_shape(x.shape(), a), (Shape{3, 8}));
  Tensor w = random_tensor(Shape{3, 8}, 75);
  Tensor y(Shape{2, 3});
  EXPECT_NO_THROW(fc_forward(x, w, nullptr,
                             y, FcAttrs{.out_features = 3, .has_bias = false}));
}

// ---------- softmax cross-entropy ----------

TEST(SoftmaxXent, UniformLogitsGiveLogC) {
  Tensor logits(Shape{4, 10});
  logits.zero();
  std::vector<std::int64_t> labels{0, 3, 7, 9};
  Tensor loss(Shape{1});
  softmax_xent_forward(logits, labels, loss);
  EXPECT_NEAR(loss[0], std::log(10.0f), 1e-5);
}

TEST(SoftmaxXent, PerfectPredictionLowLoss) {
  Tensor logits(Shape{2, 3});
  logits.zero();
  logits[0] = 50.0f;   // sample 0 -> class 0
  logits[5] = 50.0f;   // sample 1 -> class 2
  std::vector<std::int64_t> labels{0, 2};
  Tensor loss(Shape{1});
  softmax_xent_forward(logits, labels, loss);
  EXPECT_LT(loss[0], 1e-4f);
}

TEST(SoftmaxXent, GradientMatchesNumeric) {
  Tensor logits = random_tensor(Shape{3, 5}, 80);
  std::vector<std::int64_t> labels{1, 4, 0};
  Tensor dloss(Shape{1});
  dloss[0] = 1.0f;
  Tensor dlogits(logits.shape());
  softmax_xent_backward(logits, labels, dloss, dlogits);
  Tensor probe(Shape{1});
  probe[0] = 1.0f;
  auto fwd = [&](const Tensor& lin) {
    Tensor loss(Shape{1});
    softmax_xent_forward(lin, labels, loss);
    return loss;
  };
  testing::check_gradient(logits, probe, fwd, dlogits, 1e-3f);
}

TEST(SoftmaxXent, LabelOutOfRangeThrows) {
  Tensor logits(Shape{1, 3});
  std::vector<std::int64_t> bad{5};
  Tensor loss(Shape{1});
  EXPECT_THROW(softmax_xent_forward(logits, bad, loss), Error);
}

// ---------- elementwise ----------

TEST(Add, ForwardBackward) {
  Tensor a = random_tensor(Shape{6}, 90);
  Tensor b = random_tensor(Shape{6}, 91);
  Tensor y(Shape{6});
  add_forward(a, b, y);
  for (int i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(y[i], a[i] + b[i]);
  Tensor dy = random_tensor(Shape{6}, 92);
  Tensor da(Shape{6}), db(Shape{6});
  add_backward(dy, da, db);
  EXPECT_TRUE(bit_equal(da, dy));
  EXPECT_TRUE(bit_equal(db, dy));
}

TEST(Concat, RoundTrip) {
  Tensor a = random_tensor(Shape{2, 3, 2, 2}, 93);
  Tensor b = random_tensor(Shape{2, 5, 2, 2}, 94);
  std::vector<const Tensor*> ins{&a, &b};
  Tensor y(concat_output_shape(ins));
  EXPECT_EQ(y.shape(), (Shape{2, 8, 2, 2}));
  concat_forward(ins, y);
  Tensor da(a.shape()), db(b.shape());
  std::vector<Tensor*> outs{&da, &db};
  concat_backward(y, outs);  // dy = y -> splits back to the originals
  EXPECT_TRUE(bit_equal(da, a));
  EXPECT_TRUE(bit_equal(db, b));
}

TEST(Concat, MismatchedExtentsThrow) {
  Tensor a(Shape{2, 3, 2, 2});
  Tensor b(Shape{1, 5, 2, 2});
  std::vector<const Tensor*> ins{&a, &b};
  EXPECT_THROW(concat_output_shape(ins), Error);
}

TEST(Flatten, RoundTrip) {
  Tensor x = random_tensor(Shape{2, 3, 4}, 95);
  Tensor y(x.shape().flatten2d());
  flatten_forward(x, y);
  Tensor dx(x.shape());
  flatten_backward(x.shape(), y, dx);
  EXPECT_TRUE(bit_equal(dx, x));
}

// ---------- dropout ----------

TEST(Dropout, MaskIsReproducible) {
  DropoutAttrs a;
  a.rate = 0.5f;
  a.key = 42;
  Tensor x = random_tensor(Shape{1000}, 96);
  Tensor y1(x.shape()), y2(x.shape());
  dropout_forward(x, y1, a, /*iteration=*/3);
  dropout_forward(x, y2, a, /*iteration=*/3);
  EXPECT_TRUE(bit_equal(y1, y2));  // recompute regenerates the mask
  Tensor y3(x.shape());
  dropout_forward(x, y3, a, /*iteration=*/4);
  EXPECT_FALSE(bit_equal(y1, y3));  // different iteration, different mask
}

TEST(Dropout, KeepRateApproximate) {
  DropoutAttrs a;
  a.rate = 0.3f;
  a.key = 7;
  Tensor x(Shape{20000});
  x.fill(1.0f);
  Tensor y(x.shape());
  dropout_forward(x, y, a, 0);
  int kept = 0;
  for (std::int64_t i = 0; i < y.numel(); ++i) kept += y[i] != 0.0f;
  EXPECT_NEAR(static_cast<double>(kept) / y.numel(), 0.7, 0.02);
  // Inverted scaling preserves the expectation.
  EXPECT_NEAR(sum(y) / static_cast<double>(y.numel()), 1.0, 0.03);
}

TEST(Dropout, BackwardUsesSameMask) {
  DropoutAttrs a;
  a.rate = 0.4f;
  a.key = 9;
  Tensor x = random_tensor(Shape{256}, 97);
  Tensor y(x.shape());
  dropout_forward(x, y, a, 5);
  Tensor dy(x.shape());
  dy.fill(1.0f);
  Tensor dx(x.shape());
  dropout_backward(dy, dx, a, 5);
  // dx is zero exactly where y is zero.
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_EQ(dx[i] == 0.0f, y[i] == 0.0f) << "index " << i;
  }
}

// kernel.* timers do not nest: fc runs the GEMM core itself, so its
// time is counted once, under fc_*, and never again under matmul*.
TEST(KernelTimers, FcDoesNotCountAsMatmul) {
  obs::StatsRegistry stats;
  KernelContext ctx(1);
  ctx.stats = &stats;
  FcAttrs attrs;
  attrs.out_features = 5;
  const Tensor x = random_tensor(Shape{4, 7}, 60);
  const Tensor w = random_tensor(Shape{5, 7}, 61);
  const Tensor b = random_tensor(Shape{5}, 62);
  Tensor y(Shape{4, 5});
  fc_forward(x, w, &b, y, attrs, ctx);
  const Tensor dy = random_tensor(y.shape(), 63);
  Tensor dx(x.shape()), dw(w.shape()), db(b.shape());
  fc_backward(x, w, dy, &dx, dw, &db, attrs, ctx);

  EXPECT_EQ(stats.counter_value("kernel.fc_forward.calls"), 1u);
  EXPECT_EQ(stats.counter_value("kernel.fc_backward.calls"), 1u);
  for (const char* gemm :
       {"matmul", "matmul_acc", "matmul_at", "matmul_bt", "matmul_bt_acc"}) {
    EXPECT_EQ(stats.counter_value(std::string("kernel.") + gemm + ".calls"),
              0u)
        << gemm;
  }
}

}  // namespace
}  // namespace pooch::kernels
