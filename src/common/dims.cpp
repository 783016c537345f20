#include "common/dims.hpp"

#include <limits>

namespace sz14 {

Dims::Dims(std::span<const std::size_t> extents) {
  if (extents.empty()) throw std::invalid_argument("Dims: rank must be >= 1");
  if (extents.size() > kMaxDims)
    throw std::invalid_argument("Dims: rank must be <= " +
                                std::to_string(kMaxDims));
  rank_ = extents.size();
  count_ = 1;
  for (std::size_t i = 0; i < rank_; ++i) {
    if (extents[i] == 0)
      throw std::invalid_argument("Dims: zero extent on axis " +
                                  std::to_string(i));
    if (count_ > std::numeric_limits<std::size_t>::max() / extents[i])
      throw std::invalid_argument("Dims: element count overflow");
    extents_[i] = extents[i];
    count_ *= extents[i];
  }
  // Row-major: last dimension has stride 1.
  std::size_t s = 1;
  for (std::size_t i = rank_; i-- > 0;) {
    strides_[i] = s;
    s *= extents_[i];
  }
}

std::size_t Dims::linear(std::span<const std::size_t> coord) const {
  if (coord.size() != rank_)
    throw std::invalid_argument("Dims::linear: coordinate rank mismatch");
  std::size_t idx = 0;
  for (std::size_t i = 0; i < rank_; ++i) {
    if (coord[i] >= extents_[i])
      throw std::out_of_range("Dims::linear: coordinate out of range");
    idx += coord[i] * strides_[i];
  }
  return idx;
}

void Dims::unravel(std::size_t index, std::span<std::size_t> coord) const {
  if (coord.size() != rank_)
    throw std::invalid_argument("Dims::unravel: coordinate rank mismatch");
  if (index >= count_)
    throw std::out_of_range("Dims::unravel: index out of range");
  for (std::size_t i = 0; i < rank_; ++i) {
    coord[i] = index / strides_[i];
    index %= strides_[i];
  }
}

Dims Dims::with_planes(std::size_t planes) const {
  std::array<std::size_t, kMaxDims> e = extents_;
  e[0] = planes;
  return Dims(std::span<const std::size_t>(e.data(), rank_));
}

std::string Dims::to_string() const {
  std::string s = "[";
  for (std::size_t i = 0; i < rank_; ++i) {
    if (i) s += "x";
    s += std::to_string(extents_[i]);
  }
  s += "]";
  return s;
}

}  // namespace sz14
