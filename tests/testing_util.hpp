// Shared test helpers: numeric gradient checking against the analytic
// backward kernels, and small graph/tensor factories.
#pragma once

#include <cmath>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"

namespace pooch::testing {

/// Check the analytic gradient `analytic` of scalar L = sum(f(x) * probe)
/// against central differences. `f` evaluates the forward into a fresh
/// tensor; `probe` weights the output (fixed random), so L is a generic
/// scalar functional of the op.
inline void check_gradient(
    Tensor& x, const Tensor& probe,
    const std::function<Tensor(const Tensor&)>& f, const Tensor& analytic,
    float eps = 1e-2f, float tol = 2e-2f) {
  ASSERT_EQ(analytic.shape(), x.shape());
  auto scalar = [&](const Tensor& in) {
    Tensor y = f(in);
    EXPECT_EQ(y.shape(), probe.shape());
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(y[i]) * static_cast<double>(probe[i]);
    }
    return acc;
  };
  double worst = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float saved = x[i];
    x[i] = saved + eps;
    const double up = scalar(x);
    x[i] = saved - eps;
    const double down = scalar(x);
    x[i] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    const double diff = std::fabs(numeric - static_cast<double>(analytic[i]));
    const double denom =
        std::max(1.0, std::fabs(numeric) + std::fabs(analytic[i]));
    worst = std::max(worst, diff / denom);
  }
  EXPECT_LT(worst, tol) << "worst relative gradient error " << worst;
}

inline Tensor random_tensor(const Shape& shape, std::uint64_t seed,
                            float lo = -1.0f, float hi = 1.0f) {
  Tensor t(shape);
  Rng rng(seed);
  fill_uniform(t, rng, lo, hi);
  return t;
}

/// Random DAG builder shared by the fuzz suites: a trunk of mixed layers
/// with occasional residual adds and branches, always terminating in
/// GAP -> FC -> loss. Same seed → same graph.
inline graph::Graph random_graph(std::uint64_t seed) {
  using graph::Graph;
  using graph::LayerKind;
  using graph::ValueId;
  Rng rng(seed);
  Graph g;
  const std::int64_t batch = 1 + static_cast<std::int64_t>(rng.below(3));
  const std::int64_t image = 8 + 4 * static_cast<std::int64_t>(rng.below(3));
  std::int64_t channels = 3 + static_cast<std::int64_t>(rng.below(5));
  ValueId x = g.add_input(Shape{batch, channels, image, image}, "in");
  std::vector<ValueId> residual_candidates;

  const int depth = 4 + static_cast<int>(rng.below(8));
  for (int i = 0; i < depth; ++i) {
    const std::string tag = "n" + std::to_string(i);
    switch (rng.below(6)) {
      case 0: {
        const std::int64_t out_c = 4 + static_cast<std::int64_t>(rng.below(8));
        x = g.add(LayerKind::kConv, ConvAttrs::conv2d(out_c, 3, 1, 1),
                  {x}, tag + ".conv");
        channels = out_c;
        break;
      }
      case 1:
        x = g.add(LayerKind::kBatchNorm, BatchNormAttrs{}, {x},
                  tag + ".bn");
        break;
      case 2:
        x = g.add(LayerKind::kReLU, std::monostate{}, {x}, tag + ".relu");
        break;
      case 3: {
        DropoutAttrs d;
        d.rate = 0.3f;
        d.key = seed * 31 + static_cast<std::uint64_t>(i);
        x = g.add(LayerKind::kDropout, d, {x}, tag + ".drop");
        break;
      }
      case 4: {
        // Residual add with a same-shape earlier value when available.
        ValueId partner = -1;
        for (ValueId cand : residual_candidates) {
          if (g.value(cand).shape == g.value(x).shape && cand != x) {
            partner = cand;
          }
        }
        if (partner >= 0) {
          x = g.add(LayerKind::kAdd, std::monostate{}, {x, partner},
                    tag + ".add");
        } else {
          x = g.add(LayerKind::kReLU, std::monostate{}, {x}, tag + ".relu");
        }
        break;
      }
      default: {
        // Two-branch concat: conv branches with random widths.
        const std::int64_t c1 = 2 + static_cast<std::int64_t>(rng.below(4));
        const std::int64_t c2 = 2 + static_cast<std::int64_t>(rng.below(4));
        auto b1 = g.add(LayerKind::kConv, ConvAttrs::conv2d(c1, 1, 1, 0),
                        {x}, tag + ".b1");
        auto b2 = g.add(LayerKind::kConv, ConvAttrs::conv2d(c2, 3, 1, 1),
                        {x}, tag + ".b2");
        x = g.add(LayerKind::kConcat, std::monostate{}, {b1, b2},
                  tag + ".cat");
        channels = c1 + c2;
        break;
      }
    }
    residual_candidates.push_back(x);
  }
  x = g.add(LayerKind::kGlobalAvgPool, std::monostate{}, {x}, "gap");
  FcAttrs head;
  head.out_features = 4;
  x = g.add(LayerKind::kFullyConnected, head, {x}, "fc");
  g.add(LayerKind::kSoftmaxLoss, std::monostate{}, {x}, "loss");
  g.validate();
  return g;
}

/// A model factory with a name, as a value-parameterized test's
/// parameter: gtest prints it (and ctest names the test) by that name
/// rather than by the factory's bytes, which differ between builds.
struct NamedModel {
  const char* name;
  std::function<graph::Graph()> make;

  friend void PrintTo(const NamedModel& m, std::ostream* os) {
    *os << m.name;
  }
};

/// Name generator for INSTANTIATE_TEST_SUITE_P over any parameter with a
/// `name` member.
struct ParamName {
  template <typename P>
  std::string operator()(const ::testing::TestParamInfo<P>& info) const {
    return info.param.name;
  }
};

}  // namespace pooch::testing
