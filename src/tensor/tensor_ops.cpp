#include "tensor/tensor_ops.hpp"

#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace pooch {

void fill_uniform(Tensor& t, Rng& rng, float lo, float hi) {
  float* p = t.data();
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng.uniform(lo, hi));
  }
}

void fill_normal(Tensor& t, Rng& rng, float mean, float stddev) {
  float* p = t.data();
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng.normal(mean, stddev));
  }
}

void fill_kaiming(Tensor& t, Rng& rng, std::int64_t fan_in) {
  POOCH_CHECK(fan_in > 0);
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  fill_normal(t, rng, 0.0f, stddev);
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  POOCH_CHECK_MSG(a.shape() == b.shape(), "shape mismatch "
                                              << a.shape().to_string() << " vs "
                                              << b.shape().to_string());
  float worst = 0.0f;
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

bool allclose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (a.shape() != b.shape()) return false;
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const float tol = atol + rtol * std::fabs(b[i]);
    if (std::fabs(a[i] - b[i]) > tol) return false;
  }
  return true;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

double l2_norm(const Tensor& t) {
  double acc = 0.0;
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    acc += static_cast<double>(t[i]) * static_cast<double>(t[i]);
  }
  return std::sqrt(acc);
}

double sum(const Tensor& t) {
  double acc = 0.0;
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i) acc += t[i];
  return acc;
}

void accumulate(Tensor& y, const Tensor& x, ThreadPool* pool) {
  POOCH_CHECK(y.shape() == x.shape());
  float* yp = y.data();
  const float* xp = x.data();
  parallel_for(pool, y.numel(), 1 << 14,
               [&](std::int64_t i0, std::int64_t i1, int) {
                 for (std::int64_t i = i0; i < i1; ++i) yp[i] += xp[i];
               });
}

void scale(Tensor& y, float alpha) {
  float* yp = y.data();
  const std::int64_t n = y.numel();
  for (std::int64_t i = 0; i < n; ++i) yp[i] *= alpha;
}

}  // namespace pooch
