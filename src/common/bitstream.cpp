#include "common/bitstream.hpp"

#include <utility>

namespace sz14 {

void BitWriter::put(std::uint64_t value, unsigned nbits) {
  if (nbits > 64) throw std::invalid_argument("BitWriter::put: nbits > 64");
  if (nbits == 0) return;
  if (nbits < 64) value &= (std::uint64_t{1} << nbits) - 1;
  if (nbits <= kBulkBits) {
    put_bulk(value, nbits);
    return;
  }
  // Wide value: split so each half fits the accumulator.
  const unsigned hi = nbits - 32;
  put_bulk(value >> 32, hi);
  put_bulk(value & 0xFFFF'FFFFu, 32);
}

std::vector<std::uint8_t> BitWriter::finish() && {
  if (fill_ > 0) {
    const std::uint64_t mask = (std::uint64_t{1} << fill_) - 1;
    bytes_.push_back(static_cast<std::uint8_t>((acc_ & mask) << (8 - fill_)));
    acc_ = 0;
    fill_ = 0;
  }
  return std::move(bytes_);
}

std::uint64_t BitReader::get(unsigned nbits) {
  if (nbits > 64) throw std::invalid_argument("BitReader::get: nbits > 64");
  if (nbits == 0) return 0;
  if (pos_ + nbits > bit_size())
    throw std::runtime_error("BitReader: read past end of stream");
  if (nbits <= kPeekBits) {
    const std::uint64_t v = peek(nbits);
    pos_ += nbits;
    return v;
  }
  // Wide read: two window loads.
  const unsigned hi = nbits - 32;
  std::uint64_t v = get(hi) << 32;
  return v | get(32);
}

}  // namespace sz14
