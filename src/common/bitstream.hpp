// MSB-first bit-level I/O used by the Huffman coder, the unpredictable-value
// codec (binary-representation analysis), and the ZFP-class baseline's
// bit-plane coder.
//
// Both classes run on a 64-bit accumulator: the writer batches up to 63
// pending bits before touching the byte vector, the reader serves get()/
// peek() from an 8-byte window loaded around the cursor.  The bit-level
// format (MSB-first, zero-padded to a byte on finish) is unchanged from the
// original byte-at-a-time implementation.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

namespace sz14 {

/// Append-only MSB-first bit writer.
class BitWriter {
 public:
  /// Append the low `nbits` bits of `value`, most significant first.
  /// nbits may be 0 (no-op) up to 64.  Validates and masks `value`.
  void put(std::uint64_t value, unsigned nbits);

  /// Hot-path append for entropy coding: like put(), but `nbits` must be
  /// <= kBulkBits and `value` must already be masked to `nbits` bits.
  /// Feeds the 64-bit accumulator directly, flushing whole bytes.
  void put_bulk(std::uint64_t value, unsigned nbits) {
    acc_ = (acc_ << nbits) | value;
    fill_ += nbits;
    nbits_ += nbits;
    while (fill_ >= 8) {
      fill_ -= 8;
      bytes_.push_back(static_cast<std::uint8_t>(acc_ >> fill_));
    }
  }

  /// Largest nbits accepted by put_bulk(): 7 residual bits + 56 new ones
  /// still fit the 64-bit accumulator.
  static constexpr unsigned kBulkBits = 56;

  /// Append a single bit.
  void put_bit(bool b) { put_bulk(b ? 1u : 0u, 1); }

  /// Pad to a byte boundary with zero bits and return the buffer.
  [[nodiscard]] std::vector<std::uint8_t> finish() &&;

  /// Number of bits written so far.
  [[nodiscard]] std::uint64_t bit_count() const noexcept { return nbits_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t acc_ = 0;  // low fill_ bits pending; higher bits are garbage
  unsigned fill_ = 0;      // number of pending bits in acc_ (always < 8
                           // between calls — put_bulk flushes whole bytes)
  std::uint64_t nbits_ = 0;
};

/// Bounds-checked MSB-first bit reader over a borrowed span.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Read `nbits` (0..64) bits, MSB-first.
  [[nodiscard]] std::uint64_t get(unsigned nbits);

  /// Look at the next `nbits` (1..kPeekBits) without consuming them.
  /// Bits past the end of the stream read as 0 — callers that act on a
  /// peek must skip() the bits they actually used, which re-checks bounds.
  [[nodiscard]] std::uint64_t peek(unsigned nbits) const {
    const std::size_t byte = static_cast<std::size_t>(pos_ >> 3);
    const unsigned bit_off = static_cast<unsigned>(pos_ & 7);
    std::uint64_t w;
    const std::size_t avail = data_.size() - byte;  // pos_ <= bit_size()
    if (avail >= 8) {
      // One unaligned load + byte swap covers the whole window.
      std::memcpy(&w, data_.data() + byte, 8);
      w = __builtin_bswap64(w);
    } else {
      w = 0;
      for (std::size_t k = 0; k < avail; ++k)
        w |= static_cast<std::uint64_t>(data_[byte + k]) << (56 - 8 * k);
    }
    return (w << bit_off) >> (64u - nbits);
  }

  /// Largest nbits accepted by peek(): the 8-byte window minus up to 7
  /// already-consumed bits of its first byte.
  static constexpr unsigned kPeekBits = 56;

  /// Consume `nbits` previously peek()ed bits.
  void skip(unsigned nbits) {
    if (pos_ + nbits > bit_size())
      throw std::runtime_error("BitReader: read past end of stream");
    pos_ += nbits;
  }

  [[nodiscard]] bool get_bit() { return get(1) != 0; }

  /// Bits consumed so far.
  [[nodiscard]] std::uint64_t bit_position() const noexcept { return pos_; }

  /// Total bits available.
  [[nodiscard]] std::uint64_t bit_size() const noexcept {
    return static_cast<std::uint64_t>(data_.size()) * 8;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::uint64_t pos_ = 0;
};

}  // namespace sz14
