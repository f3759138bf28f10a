#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/dtype.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"

namespace pooch {
namespace {

TEST(Shape, BasicProperties) {
  Shape s{64, 3, 224, 224};
  EXPECT_EQ(s.rank(), 4);
  EXPECT_EQ(s.numel(), 64 * 3 * 224 * 224);
  EXPECT_EQ(s.dim(0), 64);
  EXPECT_EQ(s.dim(-1), 224);
  EXPECT_EQ(s.dim(-3), 3);
  EXPECT_EQ(s.to_string(), "(64, 3, 224, 224)");
}

TEST(Shape, EqualityAndWithDim) {
  Shape a{2, 3};
  Shape b{2, 3};
  Shape c{3, 2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.with_dim(1, 7), (Shape{2, 7}));
  EXPECT_EQ(a, (Shape{2, 3}));  // with_dim does not mutate
}

TEST(Shape, Flatten2d) {
  EXPECT_EQ((Shape{4, 3, 2, 2}).flatten2d(), (Shape{4, 12}));
  EXPECT_EQ((Shape{5, 7}).flatten2d(), (Shape{5, 7}));
}

TEST(Shape, RankZeroNumelIsOne) {
  Shape s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.numel(), 1);
}

TEST(Shape, InvalidAccessThrows) {
  Shape s{2, 3};
  EXPECT_THROW(s.dim(2), Error);
  EXPECT_THROW(s.dim(-3), Error);
  EXPECT_THROW(Shape({-1, 2}), Error);
}

TEST(DType, Sizes) {
  EXPECT_EQ(dtype_size(DType::kF32), 4u);
  EXPECT_EQ(dtype_size(DType::kF16), 2u);
  EXPECT_EQ(dtype_size(DType::kI32), 4u);
  EXPECT_EQ(dtype_size(DType::kI8), 1u);
  EXPECT_STREQ(dtype_name(DType::kF32), "f32");
}

TEST(Tensor, ConstructAndFill) {
  Tensor t(Shape{2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.byte_size(), 24u);
  t.fill(2.5f);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, Index4And5) {
  Tensor t4(Shape{2, 3, 4, 5});
  EXPECT_EQ(t4.index4(0, 0, 0, 0), 0);
  EXPECT_EQ(t4.index4(1, 2, 3, 4), t4.numel() - 1);
  Tensor t5(Shape{2, 2, 2, 2, 2});
  EXPECT_EQ(t5.index5(1, 1, 1, 1, 1), 31);
}

TEST(Tensor, TakeStorageKeepsShapeAndStorageMovesIntact) {
  Tensor t(Shape{8});
  t.fill(1.0f);
  EXPECT_TRUE(t.materialized());
  Tensor::Storage s = t.take_storage();
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.materialized());
  EXPECT_EQ(t.shape(), (Shape{8}));
  ASSERT_EQ(s.size(), 8u);
  s[3] = 2.0f;
  const Tensor u(Shape{2, 4}, std::move(s));  // adopted as is, no zero fill
  EXPECT_EQ(u[0], 1.0f);
  EXPECT_EQ(u[3], 2.0f);
  EXPECT_THROW(Tensor(Shape{3}, Tensor::Storage(2)), Error);
}

TEST(Tensor, AtBoundsChecked) {
  Tensor t(Shape{4});
  EXPECT_NO_THROW(t.at(3));
  EXPECT_THROW(t.at(4), Error);
  EXPECT_THROW(t.at(-1), Error);
}

TEST(TensorOps, FillUniformInRange) {
  Tensor t(Shape{1000});
  Rng rng(5);
  fill_uniform(t, rng, -2.0f, 3.0f);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t[i], -2.0f);
    EXPECT_LT(t[i], 3.0f);
  }
}

TEST(TensorOps, MaxAbsDiffAndAllclose) {
  Tensor a(Shape{4});
  Tensor b(Shape{4});
  a.fill(1.0f);
  b.fill(1.0f);
  b[2] = 1.5f;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.5f);
  EXPECT_FALSE(allclose(a, b));
  b[2] = 1.0f + 1e-7f;
  EXPECT_TRUE(allclose(a, b));
}

TEST(TensorOps, BitEqual) {
  Tensor a(Shape{3});
  Tensor b(Shape{3});
  EXPECT_TRUE(bit_equal(a, b));
  b[0] = 1e-30f;
  EXPECT_FALSE(bit_equal(a, b));
  EXPECT_FALSE(bit_equal(a, Tensor(Shape{4})));
}

TEST(TensorOps, NormSumAccumulateScale) {
  Tensor a(Shape{3});
  a[0] = 3.0f;
  a[1] = 4.0f;
  EXPECT_DOUBLE_EQ(l2_norm(a), 5.0);
  EXPECT_DOUBLE_EQ(sum(a), 7.0);
  Tensor b(Shape{3});
  b.fill(1.0f);
  accumulate(b, a);
  EXPECT_FLOAT_EQ(b[0], 4.0f);
  EXPECT_FLOAT_EQ(b[2], 1.0f);
  scale(b, 2.0f);
  EXPECT_FLOAT_EQ(b[0], 8.0f);
}

TEST(TensorOps, KaimingVariance) {
  Tensor t(Shape{200, 50});
  Rng rng(11);
  fill_kaiming(t, rng, 50);
  double sq = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    sq += static_cast<double>(t[i]) * t[i];
  }
  EXPECT_NEAR(sq / static_cast<double>(t.numel()), 2.0 / 50.0,
              0.004);  // var = 2 / fan_in
}

}  // namespace
}  // namespace pooch
