// A dense row-major CPU tensor owning its storage.
//
// This is the numeric substrate standing in for Chainer's GPU arrays: the
// data-attached execution mode of the runtime moves these buffers between
// the simulated device arena and host memory and runs real kernels on them,
// so swap/recompute correctness is checked against actual numbers.
//
// Storage is always float32; `dtype` is carried for size accounting (the
// timing-only simulation never allocates a Tensor at all).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "tensor/dtype.hpp"
#include "tensor/shape.hpp"

namespace pooch {

namespace detail {
/// Tensor buffers of at least this many bytes are mapped from the OS.
inline constexpr std::size_t kMappedStorageBytes = std::size_t{1} << 18;
void* map_storage(std::size_t bytes);
void unmap_storage(void* p, std::size_t bytes);
}  // namespace detail

/// The allocator of tensor storage. Value-initialising a float is a no-op,
/// so a vector grows to n elements without writing them. Buffers of 256
/// KiB and more are mapped from the OS and unmapped when freed: a freed
/// tensor leaves the resident set at once, instead of staying as free
/// malloc memory that malloc's adaptive thresholds may never trim.
template <typename T>
struct StorageAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = StorageAllocator<U>;
  };
  StorageAllocator() = default;
  template <typename U>
  StorageAllocator(const StorageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n * sizeof(T) < detail::kMappedStorageBytes) {
      return std::allocator<T>::allocate(n);
    }
    return static_cast<T*>(detail::map_storage(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n * sizeof(T) < detail::kMappedStorageBytes) {
      std::allocator<T>::deallocate(p, n);
    } else {
      detail::unmap_storage(p, n * sizeof(T));
    }
  }

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

class Tensor {
 public:
  /// The flat element buffer a tensor owns.
  using Storage = std::vector<float, StorageAllocator<float>>;

  Tensor() = default;
  /// A zero-filled tensor.
  explicit Tensor(Shape shape, DType dtype = DType::kF32);
  /// Adopts `storage` (exactly shape.numel() floats) as is: its contents
  /// become the tensor's. How a storage pool hands out a recycled buffer.
  Tensor(Shape shape, Storage storage);

  const Shape& shape() const { return shape_; }
  DType dtype() const { return dtype_; }
  std::int64_t numel() const { return shape_.numel(); }
  std::size_t byte_size() const {
    return static_cast<std::size_t>(numel()) * dtype_size(dtype_);
  }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](std::int64_t i) {
    return data_[static_cast<std::size_t>(i)];
  }
  float operator[](std::int64_t i) const {
    return data_[static_cast<std::size_t>(i)];
  }

  /// Bounds-checked element access (linear index); for tests.
  float at(std::int64_t i) const;

  /// Multi-dimensional index helpers for the common ranks.
  std::int64_t index4(std::int64_t a, std::int64_t b, std::int64_t c,
                      std::int64_t d) const;
  std::int64_t index5(std::int64_t a, std::int64_t b, std::int64_t c,
                      std::int64_t d, std::int64_t e) const;

  void fill(float value);
  void zero() { fill(0.0f); }

  /// Hand the storage out, for reuse, but keep the shape: the tensor is
  /// left like a discarded feature map whose metadata survives.
  Storage take_storage();

  bool materialized() const { return !data_.empty() || numel() == 0; }

 private:
  Shape shape_;
  DType dtype_ = DType::kF32;
  Storage data_;
};

}  // namespace pooch
