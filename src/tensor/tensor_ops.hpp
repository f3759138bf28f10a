// Tensor utilities used by tests, examples and the data backend.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "tensor/tensor.hpp"

namespace pooch {

/// Fill with i.i.d. uniform values in [lo, hi).
void fill_uniform(Tensor& t, Rng& rng, float lo = -1.0f, float hi = 1.0f);

/// Fill with i.i.d. normal values.
void fill_normal(Tensor& t, Rng& rng, float mean = 0.0f, float stddev = 1.0f);

/// Kaiming-style init for weights: stddev = sqrt(2 / fan_in).
void fill_kaiming(Tensor& t, Rng& rng, std::int64_t fan_in);

/// Largest absolute elementwise difference; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);

/// True when all elements differ by at most atol + rtol*|b|.
bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
              float atol = 1e-6f);

/// True when the buffers are identical bit for bit.
bool bit_equal(const Tensor& a, const Tensor& b);

/// Euclidean norm.
double l2_norm(const Tensor& t);

/// Sum of all elements.
double sum(const Tensor& t);

/// y += x (shapes must match), elements split over `pool` when given.
void accumulate(Tensor& y, const Tensor& x, ThreadPool* pool = nullptr);

/// y = alpha * y.
void scale(Tensor& y, float alpha);

}  // namespace pooch
