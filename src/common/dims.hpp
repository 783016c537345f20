// Shape and stride arithmetic for multidimensional arrays (1-4 dimensions).
//
// Convention (matches the paper's Section IV pseudocode): a data set has size
// N = n(1) * n(2) * ... * n(d), where n(1) is the *lowest* (fastest-varying)
// dimension.  We store dims highest-first, i.e. dims()[0] is the slowest
// dimension, dims().back() is the fastest — plain C row-major order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>

namespace sz14 {

/// Maximum dimensionality supported by the library.
inline constexpr std::size_t kMaxDims = 4;

/// A small value-type describing the shape of a d-dimensional array
/// (1 <= d <= kMaxDims) plus row-major stride arithmetic.
class Dims {
 public:
  Dims() = default;

  /// Construct from an explicit list of extents, slowest dimension first.
  /// Throws std::invalid_argument for rank 0, rank > kMaxDims, or any
  /// zero extent.
  Dims(std::initializer_list<std::size_t> extents)
      : Dims(std::span<const std::size_t>(extents.begin(), extents.size())) {}

  explicit Dims(std::span<const std::size_t> extents);

  /// Number of dimensions (0 for a default-constructed, empty shape).
  [[nodiscard]] std::size_t rank() const noexcept { return rank_; }

  /// Extent of dimension `i` (0 = slowest).
  [[nodiscard]] std::size_t extent(std::size_t i) const {
    if (i >= rank_) throw std::out_of_range("Dims::extent: axis out of range");
    return extents_[i];
  }

  /// Row-major stride of dimension `i` in elements.
  [[nodiscard]] std::size_t stride(std::size_t i) const {
    if (i >= rank_) throw std::out_of_range("Dims::stride: axis out of range");
    return strides_[i];
  }

  /// Total number of elements.
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  [[nodiscard]] bool empty() const noexcept { return rank_ == 0; }

  /// Linear index of a multidimensional coordinate (slowest-first).
  [[nodiscard]] std::size_t linear(std::span<const std::size_t> coord) const;

  /// Inverse of linear(): fills `coord` (must have rank() entries).
  void unravel(std::size_t index, std::span<std::size_t> coord) const;

  [[nodiscard]] std::span<const std::size_t> extents() const noexcept {
    return {extents_.data(), rank_};
  }

  /// The same shape with `planes` planes along axis 0 (the slowest): a
  /// leading slab of this array, or a slab container's chunk.  Throws
  /// std::invalid_argument for planes == 0.
  [[nodiscard]] Dims with_planes(std::size_t planes) const;

  [[nodiscard]] bool operator==(const Dims& o) const noexcept {
    if (rank_ != o.rank_) return false;
    for (std::size_t i = 0; i < rank_; ++i)
      if (extents_[i] != o.extents_[i]) return false;
    return true;
  }

  [[nodiscard]] std::string to_string() const;

 private:
  std::array<std::size_t, kMaxDims> extents_{};
  std::array<std::size_t, kMaxDims> strides_{};
  std::size_t rank_ = 0;
  std::size_t count_ = 0;
};

}  // namespace sz14
