// Growable byte buffer with little-endian POD and LEB128 varint helpers.
// All container formats in the library (core stream, baseline streams,
// Huffman tables) are serialized through these two classes so the on-disk
// layout is defined in exactly one place.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace sz14 {

/// Append-only serializer.  All multi-byte scalars are little-endian.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Append a trivially copyable scalar verbatim (little-endian host assumed;
  /// the library targets x86-64/aarch64).
  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    // resize + memcpy, not a range insert: GCC 12 misreads a small range
    // insert into an empty vector as an overflow (-Wstringop-overflow).
    if constexpr (sizeof(T) == 1) {
      bytes_.push_back(std::bit_cast<std::uint8_t>(v));
    } else {
      const std::size_t at = bytes_.size();
      bytes_.resize(at + sizeof(T));
      std::memcpy(bytes_.data() + at, &v, sizeof(T));
    }
  }

  void put_bytes(std::span<const std::uint8_t> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  /// Unsigned LEB128.
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      bytes_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    bytes_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Zigzag-encoded signed LEB128.
  void put_svarint(std::int64_t v) {
    put_varint((static_cast<std::uint64_t>(v) << 1) ^
               static_cast<std::uint64_t>(v >> 63));
  }

  /// Length-prefixed (varint) UTF-8/byte string.
  void put_string(std::string_view s) {
    put_varint(s.size());
    const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
    bytes_.insert(bytes_.end(), p, p + s.size());
  }

  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> view() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() && {
    return std::move(bytes_);
  }
  std::vector<std::uint8_t>& vector() noexcept { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bytes ByteWriter::put_varint(v) appends.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Bounds-checked deserializer over a borrowed byte span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  template <typename T>
  [[nodiscard]] T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  [[nodiscard]] std::span<const std::uint8_t> get_bytes(std::size_t n) {
    require(n);
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::uint64_t get_varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      require(1);
      const std::uint8_t b = data_[pos_++];
      if (shift >= 64 || (shift == 63 && (b & 0x7E)))
        throw std::runtime_error("ByteReader: varint overflow");
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if (!(b & 0x80)) return v;
      shift += 7;
    }
  }

  [[nodiscard]] std::int64_t get_svarint() {
    const std::uint64_t z = get_varint();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  /// Inverse of ByteWriter::put_string.
  [[nodiscard]] std::string get_string() {
    const auto n = static_cast<std::size_t>(get_varint());
    const auto s = get_bytes(n);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }

 private:
  void require(std::size_t n) const {
    if (data_.size() - pos_ < n)
      throw std::runtime_error("ByteReader: truncated stream (need " +
                               std::to_string(n) + " bytes at offset " +
                               std::to_string(pos_) + ")");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace sz14
