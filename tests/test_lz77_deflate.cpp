#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "encoding/deflate_like.hpp"
#include "encoding/lz77.hpp"

namespace sz14 {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(Lz77, LiteralOnlyForIncompressibleShortInput) {
  const auto data = bytes_of("abcdefg");
  const auto tokens = lz77_tokenize(data);
  EXPECT_EQ(tokens.size(), data.size());
  for (const auto& t : tokens) EXPECT_FALSE(t.is_match);
}

TEST(Lz77, FindsRepeatedPattern) {
  const auto data = bytes_of("abcdabcdabcdabcdabcdabcd");
  const auto tokens = lz77_tokenize(data);
  bool has_match = false;
  for (const auto& t : tokens) has_match |= t.is_match;
  EXPECT_TRUE(has_match);
  EXPECT_EQ(lz77_expand(tokens), data);
}

TEST(Lz77, OverlappingRunLengthEncoding) {
  // "aaaa..." should compress to a literal plus an overlapping match
  // (distance 1, long length) — the RLE degenerate case of LZ77.
  const std::vector<std::uint8_t> data(500, 'a');
  const auto tokens = lz77_tokenize(data);
  EXPECT_LT(tokens.size(), 10u);
  EXPECT_EQ(lz77_expand(tokens), data);
}

TEST(Lz77, EmptyInput) {
  const std::vector<std::uint8_t> data;
  const auto tokens = lz77_tokenize(data);
  EXPECT_TRUE(tokens.empty());
  EXPECT_TRUE(lz77_expand(tokens).empty());
}

TEST(Lz77, RandomDataRoundTrip) {
  Rng rng(3);
  std::vector<std::uint8_t> data(20000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  EXPECT_EQ(lz77_expand(lz77_tokenize(data)), data);
}

TEST(Lz77, StructuredDataRoundTrip) {
  // Repeating record-like structure with noise, closer to real file bytes.
  Rng rng(5);
  std::vector<std::uint8_t> data;
  for (int rec = 0; rec < 500; ++rec) {
    const char* header = "RECORD:";
    data.insert(data.end(), header, header + 7);
    for (int i = 0; i < 20; ++i)
      data.push_back(static_cast<std::uint8_t>(rng.below(4)));
  }
  EXPECT_EQ(lz77_expand(lz77_tokenize(data)), data);
}

TEST(Lz77, InvalidBackwardReferenceThrows) {
  std::vector<Lz77Token> tokens;
  tokens.push_back(Lz77Token{true, 0, 4, 10});  // distance 10 into nothing
  EXPECT_THROW((void)lz77_expand(tokens), std::runtime_error);
}

TEST(Lz77, MinMatchValidation) {
  Lz77Params p;
  p.min_match = 2;
  const std::vector<std::uint8_t> data(10, 'x');
  EXPECT_THROW((void)lz77_tokenize(data, p), std::invalid_argument);
}

TEST(DeflateLike, EmptyRoundTrip) {
  const std::vector<std::uint8_t> data;
  EXPECT_EQ(deflate_like_decompress(deflate_like_compress(data)), data);
}

TEST(DeflateLike, TextRoundTripAndShrinks) {
  std::string text;
  for (int i = 0; i < 200; ++i)
    text += "the quick brown fox jumps over the lazy dog. ";
  const auto data = bytes_of(text);
  const auto compressed = deflate_like_compress(data);
  EXPECT_LT(compressed.size(), data.size() / 4);
  EXPECT_EQ(deflate_like_decompress(compressed), data);
}

TEST(DeflateLike, RandomBytesRoundTrip) {
  Rng rng(9);
  std::vector<std::uint8_t> data(50000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  EXPECT_EQ(deflate_like_decompress(deflate_like_compress(data)), data);
}

TEST(DeflateLike, FloatArrayBytesRoundTrip) {
  // The GZIP baseline's actual workload: raw float bytes.
  std::vector<float> values(10000);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = std::sin(static_cast<double>(i) * 0.01f);
  std::vector<std::uint8_t> data(values.size() * sizeof(float));
  std::memcpy(data.data(), values.data(), data.size());
  EXPECT_EQ(deflate_like_decompress(deflate_like_compress(data)), data);
}

TEST(DeflateLike, AllByteValuesRoundTrip) {
  std::vector<std::uint8_t> data;
  for (int rep = 0; rep < 16; ++rep)
    for (int b = 0; b < 256; ++b)
      data.push_back(static_cast<std::uint8_t>(b));
  EXPECT_EQ(deflate_like_decompress(deflate_like_compress(data)), data);
}

TEST(DeflateLike, MalformedStreamThrows) {
  std::vector<std::uint8_t> junk = {0x42, 0x42, 0x42};
  EXPECT_THROW((void)deflate_like_decompress(junk), std::runtime_error);
}

TEST(DeflateLike, LongRunsAcrossLengthBuckets) {
  // Runs sized to hit every deflate length bucket incl. the 258 cap.
  std::vector<std::uint8_t> data;
  for (std::size_t len : {3u, 4u, 10u, 11u, 50u, 130u, 258u, 300u, 1000u}) {
    for (std::size_t i = 0; i < len; ++i)
      data.push_back(static_cast<std::uint8_t>('A' + (len % 26)));
    data.push_back('|');
  }
  EXPECT_EQ(deflate_like_decompress(deflate_like_compress(data)), data);
}

}  // namespace
}  // namespace sz14
