// CRC-32 against a bytewise oracle: the slicing-by-8 fold must return the
// classic one-table loop's value at every length and start alignment, and
// crc32_update must chain across arbitrary split points.
#include "common/checksum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace sz14 {
namespace {

/// The bytewise one-table loop the slicing-by-8 fold replaced: the oracle.
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> data) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t b : data)
    crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

TEST(Checksum, StandardCheckValue) {
  constexpr std::string_view kCheck = "123456789";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(kCheck.data()), kCheck.size());
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Checksum, MatchesBytewiseOracleAtEveryLengthAndAlignment) {
  constexpr std::size_t kMaxLen = 1100;
  const auto buf = random_bytes(kMaxLen + 8, 21);
  for (std::size_t align = 0; align < 8; ++align)
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::span<const std::uint8_t> s(buf.data() + align, len);
      ASSERT_EQ(crc32(s), crc32_bytewise(s))
          << "len=" << len << " align=" << align;
    }
}

TEST(Checksum, UpdateChainsAtRandomSplits) {
  const auto buf = random_bytes(4096 + 13, 7);
  const std::uint32_t whole = crc32(buf);
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint32_t crc = 0;
    std::size_t pos = 0;
    while (pos < buf.size()) {
      const std::size_t step = std::min<std::size_t>(
          buf.size() - pos, static_cast<std::size_t>(rng.next() % 40));
      crc = crc32_update(crc, {buf.data() + pos, step});
      pos += step;
    }
    ASSERT_EQ(crc, whole) << "trial " << trial;
  }
}

}  // namespace
}  // namespace sz14
