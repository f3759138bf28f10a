#include "tensor/tensor.hpp"

#include <sys/mman.h>

#include <algorithm>

#include "common/error.hpp"

namespace pooch {

namespace detail {

void* map_storage(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void unmap_storage(void* p, std::size_t bytes) { munmap(p, bytes); }

}  // namespace detail

Tensor::Tensor(Shape shape, DType dtype)
    : shape_(std::move(shape)), dtype_(dtype) {
  POOCH_CHECK_MSG(dtype_ == DType::kF32,
                  "only f32 tensors carry data in this build");
  data_.assign(static_cast<std::size_t>(shape_.numel()), 0.0f);
}

Tensor::Tensor(Shape shape, Storage storage)
    : shape_(std::move(shape)), data_(std::move(storage)) {
  POOCH_CHECK_MSG(static_cast<std::int64_t>(data_.size()) == shape_.numel(),
                  "storage of " << data_.size() << " floats for a tensor of "
                                << shape_.numel());
}

float Tensor::at(std::int64_t i) const {
  POOCH_CHECK_MSG(i >= 0 && i < numel(),
                  "index " << i << " out of range " << numel());
  return data_[static_cast<std::size_t>(i)];
}

std::int64_t Tensor::index4(std::int64_t a, std::int64_t b, std::int64_t c,
                            std::int64_t d) const {
  POOCH_CHECK(shape_.rank() == 4);
  return ((a * shape_[1] + b) * shape_[2] + c) * shape_[3] + d;
}

std::int64_t Tensor::index5(std::int64_t a, std::int64_t b, std::int64_t c,
                            std::int64_t d, std::int64_t e) const {
  POOCH_CHECK(shape_.rank() == 5);
  return (((a * shape_[1] + b) * shape_[2] + c) * shape_[3] + d) * shape_[4] +
         e;
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Tensor::Storage Tensor::take_storage() {
  Storage s = std::move(data_);
  data_ = Storage();
  return s;
}

}  // namespace pooch
