#include "common/bytebuffer.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "common/rng.hpp"

namespace sz14 {
namespace {

TEST(ByteBuffer, PodRoundTrip) {
  ByteWriter w;
  w.put<std::uint8_t>(0xAB);
  w.put<std::uint32_t>(0xDEADBEEF);
  w.put<double>(3.25);
  w.put<float>(-1.5f);
  auto bytes = std::move(w).take();
  ByteReader r(bytes);
  EXPECT_EQ(r.get<std::uint8_t>(), 0xAB);
  EXPECT_EQ(r.get<std::uint32_t>(), 0xDEADBEEFu);
  EXPECT_EQ(r.get<double>(), 3.25);
  EXPECT_EQ(r.get<float>(), -1.5f);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteBuffer, VarintKnownEncodings) {
  ByteWriter w;
  w.put_varint(0);
  w.put_varint(127);
  w.put_varint(128);
  w.put_varint(300);
  const auto v = w.view();
  // 0 -> 1 byte, 127 -> 1 byte, 128 -> 2 bytes, 300 -> 2 bytes.
  EXPECT_EQ(v.size(), 6u);
  EXPECT_EQ(v[0], 0x00);
  EXPECT_EQ(v[1], 0x7F);
  EXPECT_EQ(v[2], 0x80);
  EXPECT_EQ(v[3], 0x01);
}

TEST(ByteBuffer, VarintRoundTripSweep) {
  ByteWriter w;
  std::vector<std::uint64_t> values;
  for (int shift = 0; shift < 64; ++shift) {
    values.push_back(std::uint64_t{1} << shift);
    values.push_back((std::uint64_t{1} << shift) - 1);
  }
  values.push_back(std::numeric_limits<std::uint64_t>::max());
  for (auto v : values) w.put_varint(v);
  auto bytes = std::move(w).take();
  ByteReader r(bytes);
  for (auto v : values) EXPECT_EQ(r.get_varint(), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteBuffer, RandomVarintProperty) {
  Rng rng(7);
  ByteWriter w;
  std::vector<std::uint64_t> values(2000);
  for (auto& v : values) v = rng.next() >> (rng.next() % 64);
  for (auto v : values) w.put_varint(v);
  auto bytes = std::move(w).take();
  ByteReader r(bytes);
  for (auto v : values) ASSERT_EQ(r.get_varint(), v);
}

TEST(ByteBuffer, TruncatedReadThrows) {
  ByteWriter w;
  w.put<std::uint16_t>(7);
  auto bytes = std::move(w).take();
  ByteReader r(bytes);
  EXPECT_THROW((void)r.get<std::uint64_t>(), std::runtime_error);
}

TEST(ByteBuffer, TruncatedVarintThrows) {
  const std::uint8_t bad[] = {0x80, 0x80};  // continuation without end
  ByteReader r({bad, 2});
  EXPECT_THROW((void)r.get_varint(), std::runtime_error);
}

TEST(ByteBuffer, OverlongVarintThrows) {
  // 11 continuation bytes exceed 64 bits of payload.
  const std::uint8_t bad[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                              0xFF, 0xFF, 0xFF, 0xFF, 0x7F};
  ByteReader r({bad, sizeof(bad)});
  EXPECT_THROW((void)r.get_varint(), std::runtime_error);
}

TEST(ByteBuffer, GetBytesAndRemaining) {
  ByteWriter w;
  const std::uint8_t payload[] = {1, 2, 3, 4, 5};
  w.put_bytes({payload, 5});
  auto bytes = std::move(w).take();
  ByteReader r(bytes);
  EXPECT_EQ(r.remaining(), 5u);
  const auto s = r.get_bytes(3);
  EXPECT_EQ(s[0], 1);
  EXPECT_EQ(s[2], 3);
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_THROW((void)r.get_bytes(3), std::runtime_error);
}

}  // namespace
}  // namespace sz14
