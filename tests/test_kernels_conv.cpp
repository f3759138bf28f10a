#include <gtest/gtest.h>

#include "kernels/conv.hpp"
#include "kernels/im2col.hpp"
#include "kernels/matmul.hpp"
#include "testing_util.hpp"

namespace pooch::kernels {
namespace {

using testing::random_tensor;

TEST(Matmul, KnownProduct) {
  // A = [[1,2],[3,4]], B = [[5,6],[7,8]] -> C = [[19,22],[43,50]]
  float a[4] = {1, 2, 3, 4};
  float b[4] = {5, 6, 7, 8};
  float c[4];
  matmul(a, b, c, 2, 2, 2);
  EXPECT_FLOAT_EQ(c[0], 19);
  EXPECT_FLOAT_EQ(c[1], 22);
  EXPECT_FLOAT_EQ(c[2], 43);
  EXPECT_FLOAT_EQ(c[3], 50);
}

TEST(Matmul, TransposedVariantsAgree) {
  const std::int64_t m = 5, k = 4, n = 3;
  Tensor a = random_tensor(Shape{m, k}, 1);
  Tensor b = random_tensor(Shape{k, n}, 2);
  Tensor c_ref(Shape{m, n});
  matmul(a.data(), b.data(), c_ref.data(), m, k, n);

  // A^T path: store A as (k, m).
  Tensor at(Shape{k, m});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) at[p * m + i] = a[i * k + p];
  }
  Tensor c1(Shape{m, n});
  matmul_at(at.data(), b.data(), c1.data(), m, k, n);
  EXPECT_LT(pooch::max_abs_diff(c_ref, c1), 1e-5f);

  // B^T path: store B as (n, k).
  Tensor bt(Shape{n, k});
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t j = 0; j < n; ++j) bt[j * k + p] = b[p * n + j];
  }
  Tensor c2(Shape{m, n});
  c2.zero();
  matmul_bt_acc(a.data(), bt.data(), c2.data(), m, k, n);
  EXPECT_LT(pooch::max_abs_diff(c_ref, c2), 1e-5f);
}

TEST(Im2col, RoundTripAccumulates) {
  ColGeom g;
  g.channels = 2;
  g.in = {1, 4, 4};
  g.kernel = {1, 3, 3};
  g.stride = {1, 1, 1};
  g.pad = {0, 1, 1};
  g.out = {1, 4, 4};
  Tensor x = random_tensor(Shape{2, 4, 4}, 3);
  Tensor col(Shape{g.rows(), g.cols()});
  im2col(x.data(), col.data(), g);
  // col2im(im2col(x)) multiplies each input element by the number of
  // windows containing it; verify against a direct count using an
  // all-ones input.
  Tensor ones(Shape{2, 4, 4});
  ones.fill(1.0f);
  Tensor col1(Shape{g.rows(), g.cols()});
  im2col(ones.data(), col1.data(), g);
  Tensor counts(Shape{2, 4, 4});
  counts.zero();
  col2im(col1.data(), counts.data(), g);
  // Interior elements of a 3x3/pad1 window grid are covered 9 times.
  EXPECT_FLOAT_EQ(counts[5], 9.0f);
  // A corner is covered 4 times.
  EXPECT_FLOAT_EQ(counts[0], 4.0f);
}

TEST(Conv2d, KnownValues) {
  // 1x1 input channel, 3x3 input, 2x2 kernel, no pad, stride 1.
  ConvAttrs a = ConvAttrs::conv2d(1, 2, 1, 0);
  Tensor x(Shape{1, 1, 3, 3});
  for (int i = 0; i < 9; ++i) x[i] = static_cast<float>(i);
  Tensor w(Shape{1, 1, 2, 2});
  w.fill(1.0f);
  Tensor b(Shape{1});
  b[0] = 0.5f;
  Tensor y(Shape{1, 1, 2, 2});
  conv_forward(x, w, &b, y, a);
  // Window sums: (0+1+3+4), (1+2+4+5), (3+4+6+7), (4+5+7+8) plus bias.
  EXPECT_FLOAT_EQ(y[0], 8.5f);
  EXPECT_FLOAT_EQ(y[1], 12.5f);
  EXPECT_FLOAT_EQ(y[2], 20.5f);
  EXPECT_FLOAT_EQ(y[3], 24.5f);
}

TEST(Conv2d, OutputShapes) {
  ConvAttrs a = ConvAttrs::conv2d(64, 7, 2, 3);
  EXPECT_EQ(conv_output_shape(Shape{8, 3, 224, 224}, a),
            (Shape{8, 64, 112, 112}));
  EXPECT_EQ(conv_weight_shape(Shape{8, 3, 224, 224}, a),
            (Shape{64, 3, 7, 7}));
  ConvAttrs g = ConvAttrs::conv2d(8, 3, 1, 1, /*groups=*/4);
  EXPECT_EQ(conv_weight_shape(Shape{1, 8, 5, 5}, g), (Shape{8, 2, 3, 3}));
  EXPECT_GT(conv_workspace_bytes(Shape{8, 3, 224, 224}, a), 0u);
}

struct ConvCase {
  const char* name;
  int spatial_rank;
  std::int64_t batch, in_c, out_c, extent, kernel, stride, pad, groups;

  friend void PrintTo(const ConvCase& c, std::ostream* os) { *os << c.name; }
};

class ConvGradient : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradient, InputWeightBiasGradients) {
  const ConvCase& pc = GetParam();
  ConvAttrs a = pc.spatial_rank == 2
                    ? ConvAttrs::conv2d(pc.out_c, pc.kernel, pc.stride, pc.pad,
                                        pc.groups)
                    : ConvAttrs::conv3d(pc.out_c, pc.kernel, pc.stride, pc.pad,
                                        pc.groups);
  Shape xs = pc.spatial_rank == 2
                 ? Shape{pc.batch, pc.in_c, pc.extent, pc.extent}
                 : Shape{pc.batch, pc.in_c, pc.extent, pc.extent, pc.extent};
  Tensor x = random_tensor(xs, 10);
  Tensor w = random_tensor(conv_weight_shape(xs, a), 11, -0.5f, 0.5f);
  Tensor b = random_tensor(Shape{a.out_channels}, 12);
  const Shape ys = conv_output_shape(xs, a);
  Tensor probe = random_tensor(ys, 13);

  // Analytic gradients with dy = probe.
  Tensor dx(xs), dw(w.shape()), db(b.shape());
  conv_backward(x, w, probe, &dx, dw, &db, a);

  auto fwd_x = [&](const Tensor& xin) {
    Tensor y(ys);
    conv_forward(xin, w, &b, y, a);
    return y;
  };
  testing::check_gradient(x, probe, fwd_x, dx);

  auto fwd_w = [&](const Tensor& win) {
    Tensor y(ys);
    conv_forward(x, win, &b, y, a);
    return y;
  };
  testing::check_gradient(w, probe, fwd_w, dw);

  auto fwd_b = [&](const Tensor& bin) {
    Tensor y(ys);
    conv_forward(x, w, &bin, y, a);
    return y;
  };
  testing::check_gradient(b, probe, fwd_b, db);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvGradient,
    ::testing::Values(
        ConvCase{"basic2d", 2, 2, 3, 4, 5, 3, 1, 1, 1},
        ConvCase{"strided2d", 2, 1, 2, 3, 7, 3, 2, 1, 1},
        ConvCase{"pointwise2d", 2, 2, 4, 6, 4, 1, 1, 0, 1},
        ConvCase{"grouped2d", 2, 1, 4, 4, 5, 3, 1, 1, 2},
        ConvCase{"cardinality2d", 2, 1, 8, 8, 4, 3, 1, 1, 8},
        ConvCase{"basic3d", 3, 1, 2, 3, 4, 3, 1, 1, 1},
        ConvCase{"strided3d", 3, 1, 2, 2, 5, 3, 2, 1, 1},
        ConvCase{"grouped3d", 3, 1, 4, 4, 3, 3, 1, 1, 2}),
    testing::ParamName());

TEST(Conv2d, NoBiasPath) {
  ConvAttrs a = ConvAttrs::conv2d(2, 3, 1, 1, 1, /*bias=*/false);
  Shape xs{1, 2, 4, 4};
  Tensor x = random_tensor(xs, 20);
  Tensor w = random_tensor(conv_weight_shape(xs, a), 21);
  Tensor y(conv_output_shape(xs, a));
  EXPECT_NO_THROW(conv_forward(x, w, nullptr, y, a));
  Tensor dy = random_tensor(y.shape(), 22);
  Tensor dx(xs), dw(w.shape());
  EXPECT_NO_THROW(conv_backward(x, w, dy, &dx, dw, nullptr, a));
}

TEST(Conv2d, NullDxSkipsInputGradient) {
  ConvAttrs a = ConvAttrs::conv2d(2, 3, 1, 1);
  Shape xs{1, 2, 4, 4};
  Tensor x = random_tensor(xs, 30);
  Tensor w = random_tensor(conv_weight_shape(xs, a), 31);
  Tensor b = random_tensor(Shape{2}, 32);
  Tensor dy = random_tensor(conv_output_shape(xs, a), 33);
  Tensor dw(w.shape()), db(b.shape());
  EXPECT_NO_THROW(conv_backward(x, w, dy, nullptr, dw, &db, a));
  EXPECT_GT(l2_norm(dw), 0.0);
}

TEST(Conv3d, ShapeWithAnisotropicStride) {
  ConvAttrs stem;
  stem.spatial_rank = 3;
  stem.out_channels = 64;
  stem.kernel = {7, 7, 7};
  stem.stride = {1, 2, 2};
  stem.pad = {3, 3, 3};
  EXPECT_EQ(conv_output_shape(Shape{1, 3, 16, 112, 112}, stem),
            (Shape{1, 64, 16, 56, 56}));
}

TEST(Conv2d, InvalidGroupsThrow) {
  ConvAttrs a = ConvAttrs::conv2d(4, 3, 1, 1, /*groups=*/3);
  EXPECT_THROW(conv_output_shape(Shape{1, 4, 8, 8}, a), Error);
}

}  // namespace
}  // namespace pooch::kernels
