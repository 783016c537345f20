#include "encoding/huffman.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "common/bitstream.hpp"
#include "common/bytebuffer.hpp"
#include "common/rng.hpp"

namespace sz14 {
namespace {

std::vector<std::uint16_t> roundtrip(std::span<const std::uint16_t> symbols,
                                     std::size_t alphabet) {
  ByteWriter w;
  huffman_encode(symbols, alphabet, w);
  auto bytes = std::move(w).take();
  ByteReader r(bytes);
  return huffman_decode(r);
}

TEST(HuffmanLengths, TwoSymbolsGetOneBit) {
  const std::uint64_t freqs[] = {10, 90};
  const auto lens = huffman_code_lengths(freqs);
  EXPECT_EQ(lens[0], 1);
  EXPECT_EQ(lens[1], 1);
}

TEST(HuffmanLengths, SkewedDistributionOrdersLengths) {
  const std::uint64_t freqs[] = {1, 2, 4, 8, 16, 32};
  const auto lens = huffman_code_lengths(freqs);
  // Rarer symbols must never get shorter codes than common ones.
  for (std::size_t a = 0; a + 1 < 6; ++a)
    EXPECT_GE(lens[a], lens[a + 1]) << "symbol " << a;
}

TEST(HuffmanLengths, SingleSymbolGetsLengthOne) {
  const std::uint64_t freqs[] = {0, 42, 0};
  const auto lens = huffman_code_lengths(freqs);
  EXPECT_EQ(lens[0], 0);
  EXPECT_EQ(lens[1], 1);
  EXPECT_EQ(lens[2], 0);
}

TEST(HuffmanLengths, AllZeroFrequencies) {
  const std::uint64_t freqs[] = {0, 0, 0};
  const auto lens = huffman_code_lengths(freqs);
  for (auto l : lens) EXPECT_EQ(l, 0);
}

TEST(HuffmanLengths, KraftInequalityHolds) {
  Rng rng(5);
  std::vector<std::uint64_t> freqs(300);
  for (auto& f : freqs) f = rng.below(1000);
  const auto lens = huffman_code_lengths(freqs);
  double kraft = 0;
  for (auto l : lens)
    if (l) kraft += std::ldexp(1.0, -static_cast<int>(l));
  EXPECT_LE(kraft, 1.0 + 1e-12);
}

TEST(HuffmanCanonical, CodesArePrefixFree) {
  const std::uint64_t freqs[] = {50, 30, 10, 5, 3, 2};
  const auto lens = huffman_code_lengths(freqs);
  const auto codes = huffman_canonical_codes(lens);
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t b = 0; b < 6; ++b) {
      if (a == b) continue;
      const unsigned la = lens[a], lb = lens[b];
      if (la == 0 || lb == 0 || la > lb) continue;
      // code a must not be a prefix of code b.
      EXPECT_NE(codes[a], codes[b] >> (lb - la))
          << "code " << a << " is a prefix of " << b;
    }
  }
}

TEST(HuffmanRoundTrip, ByteAlphabet) {
  Rng rng(11);
  std::vector<std::uint16_t> symbols(10000);
  for (auto& s : symbols) s = static_cast<std::uint16_t>(rng.below(256));
  EXPECT_EQ(roundtrip(symbols, 256), symbols);
}

TEST(HuffmanRoundTrip, SingleSymbolStream) {
  const std::vector<std::uint16_t> symbols(500, 7);
  EXPECT_EQ(roundtrip(symbols, 16), symbols);
}

TEST(HuffmanRoundTrip, EmptyStream) {
  const std::vector<std::uint16_t> symbols;
  EXPECT_EQ(roundtrip(symbols, 256), symbols);
}

TEST(HuffmanRoundTrip, LargeAlphabet64K) {
  // The paper's requirement: m up to 16 -> 65536 quantization codes.
  Rng rng(13);
  std::vector<std::uint16_t> symbols(20000);
  for (auto& s : symbols) s = static_cast<std::uint16_t>(rng.below(65536));
  EXPECT_EQ(roundtrip(symbols, 65536), symbols);
}

TEST(HuffmanRoundTrip, SkewedQuantizationLikeDistribution) {
  // Shape of Fig. 3: mass concentrated near the centre code.
  Rng rng(17);
  std::vector<std::uint16_t> symbols;
  symbols.reserve(50000);
  for (int i = 0; i < 50000; ++i) {
    const double g = rng.normal() * 6.0;
    const int code = 128 + static_cast<int>(std::lround(g));
    symbols.push_back(static_cast<std::uint16_t>(std::clamp(code, 0, 255)));
  }
  EXPECT_EQ(roundtrip(symbols, 256), symbols);
}

TEST(HuffmanEfficiency, WithinHalfBitOfEntropyOnSkewedSource) {
  Rng rng(19);
  std::vector<std::uint16_t> symbols;
  symbols.reserve(100000);
  for (int i = 0; i < 100000; ++i) {
    const double g = rng.normal() * 4.0;
    const int code = 128 + static_cast<int>(std::lround(g));
    symbols.push_back(static_cast<std::uint16_t>(std::clamp(code, 0, 255)));
  }
  ByteWriter w;
  huffman_encode(symbols, 256, w);
  const double bits_per_symbol =
      8.0 * static_cast<double>(w.size()) / static_cast<double>(symbols.size());
  const double entropy = shannon_entropy_bits(symbols, 256);
  EXPECT_LT(bits_per_symbol, entropy + 0.5);
  EXPECT_GE(bits_per_symbol, entropy - 1e-9);
}

TEST(HuffmanLengths, FibonacciFrequenciesHitLengthLimit) {
  // Fibonacci-distributed frequencies produce the deepest possible Huffman
  // tree (one leaf per level).  With ~90 symbols the unconstrained depth
  // would exceed kMaxHuffmanBits, forcing the length-limiting repair; the
  // result must still satisfy Kraft and round-trip.
  std::vector<std::uint64_t> freqs;
  std::uint64_t a = 1, b = 1;
  for (int i = 0; i < 88; ++i) {
    freqs.push_back(a);
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  const auto lens = huffman_code_lengths(freqs);
  unsigned max_len = 0;
  double kraft = 0;
  for (auto l : lens) {
    max_len = std::max<unsigned>(max_len, l);
    if (l) kraft += std::ldexp(1.0, -static_cast<int>(l));
  }
  EXPECT_LE(max_len, kMaxHuffmanBits);
  EXPECT_LE(kraft, 1.0 + 1e-12);

  // Round-trip a stream weighted toward the rare symbols to exercise the
  // longest codes.
  std::vector<std::uint16_t> symbols;
  for (std::uint16_t s = 0; s < 88; ++s)
    for (int rep = 0; rep < 3; ++rep) symbols.push_back(s);
  EXPECT_EQ(roundtrip(symbols, 88), symbols);
}

TEST(HuffmanDecoderClass, DecodesCanonicalStream) {
  const std::uint64_t freqs[] = {5, 9, 12, 13, 16, 45};
  const auto lens = huffman_code_lengths(freqs);
  const auto codes = huffman_canonical_codes(lens);
  BitWriter bw;
  const std::uint16_t message[] = {5, 0, 1, 2, 3, 4, 5, 5};
  for (auto s : message) bw.put(codes[s], lens[s]);
  auto bytes = std::move(bw).finish();
  BitReader br(bytes);
  HuffmanDecoder dec(lens);
  for (auto s : message) EXPECT_EQ(dec.decode(br), s);
}

TEST(HuffmanErrors, SymbolOutOfAlphabetThrows) {
  const std::vector<std::uint16_t> symbols = {4};
  ByteWriter w;
  EXPECT_THROW(huffman_encode(symbols, 4, w), std::invalid_argument);
}

TEST(HuffmanErrors, MalformedStreamThrows) {
  const std::vector<std::uint8_t> junk = {0x01, 0x02, 0x03};
  ByteReader r(junk);
  EXPECT_THROW((void)huffman_decode(r), std::runtime_error);
}

TEST(HuffmanErrors, EmptyCodeTableDecoderThrows) {
  const std::vector<std::uint8_t> lens(4, 0);
  HuffmanDecoder dec(lens);
  const std::uint8_t b[1] = {0xFF};
  BitReader br({b, 1});
  EXPECT_THROW((void)dec.decode(br), std::runtime_error);
}

TEST(HuffmanEntropy, KnownValues) {
  // Uniform over 4 symbols -> 2 bits.
  std::vector<std::uint16_t> symbols = {0, 1, 2, 3, 0, 1, 2, 3};
  EXPECT_NEAR(shannon_entropy_bits(symbols, 4), 2.0, 1e-12);
  // Constant stream -> 0 bits.
  std::vector<std::uint16_t> constant(10, 2);
  EXPECT_NEAR(shannon_entropy_bits(constant, 4), 0.0, 1e-12);
}

TEST(HuffmanFastDecode, MatchesBitwiseOnRandomTables) {
  // The table fast path and the canonical scan must agree symbol-for-symbol
  // on arbitrary (valid) code tables and payloads.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const std::size_t alphabet = 2 + rng.below(3000);
    std::vector<std::uint64_t> freqs(alphabet, 0);
    for (auto& f : freqs) f = rng.below(10000);
    freqs[0] = 1;  // keep at least one symbol present
    const auto lens = huffman_code_lengths(freqs);
    const auto codes = huffman_canonical_codes(lens);

    std::vector<std::uint16_t> message;
    for (int i = 0; i < 2000; ++i) {
      const auto s = static_cast<std::uint16_t>(rng.below(alphabet));
      if (lens[s]) message.push_back(s);
    }
    BitWriter bw;
    for (auto s : message) bw.put(codes[s], lens[s]);
    const auto bytes = std::move(bw).finish();

    HuffmanDecoder dec(lens);
    BitReader fast(bytes), slow(bytes);
    for (auto s : message) {
      EXPECT_EQ(dec.decode(fast), s);
      EXPECT_EQ(dec.decode_bitwise(slow), s);
    }
    EXPECT_EQ(fast.bit_position(), slow.bit_position());
  }
}

TEST(HuffmanFastDecode, MatchesBitwiseOnMaxLengthCodes) {
  // Adversarial table: one symbol per length 1..kMaxHuffmanBits, the last
  // two sharing the deepest level so the table is Kraft-complete.  Every
  // code longer than HuffmanDecoder::kTableBits exercises the fallback.
  std::vector<std::uint8_t> lens;
  for (unsigned l = 1; l < kMaxHuffmanBits; ++l)
    lens.push_back(static_cast<std::uint8_t>(l));
  lens.push_back(kMaxHuffmanBits);
  lens.push_back(kMaxHuffmanBits);
  const auto codes = huffman_canonical_codes(lens);

  std::vector<std::uint16_t> message;
  for (std::uint16_t s = 0; s < lens.size(); ++s) {
    message.push_back(s);
    message.push_back(
        static_cast<std::uint16_t>(lens.size() - 1 - s));  // reverse too
  }
  BitWriter bw;
  for (auto s : message) bw.put(codes[s], lens[s]);
  const auto bytes = std::move(bw).finish();

  HuffmanDecoder dec(lens);
  EXPECT_EQ(dec.max_length(), kMaxHuffmanBits);
  EXPECT_EQ(dec.min_length(), 1u);
  BitReader fast(bytes), slow(bytes);
  for (auto s : message) {
    EXPECT_EQ(dec.decode(fast), s);
    EXPECT_EQ(dec.decode_bitwise(slow), s);
  }
}

TEST(HuffmanMultiSymbol, PayloadDecodeMatchesBitwiseOnRandomTables) {
  // huffman_decode_payload_into drives the multi-symbol table path (up to
  // kMaxTableSymbols codes per lookup); it must agree symbol-for-symbol
  // with a pure decode_bitwise walk on arbitrary valid tables.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 31);
    const std::size_t alphabet = 2 + rng.below(4000);
    std::vector<std::uint64_t> freqs(alphabet, 0);
    for (auto& f : freqs) f = rng.below(10000);
    freqs[0] = 1;
    const auto lens = huffman_code_lengths(freqs);
    const auto codes = huffman_canonical_codes(lens);
    const auto packed = huffman_pack_codes(lens, codes);

    std::vector<std::uint16_t> message;
    for (int i = 0; i < 3000; ++i) {
      const auto s = static_cast<std::uint16_t>(rng.below(alphabet));
      if (lens[s]) message.push_back(s);
    }
    std::vector<std::uint8_t> payload;
    huffman_append_payload(message, packed, payload);

    const HuffmanDecoder dec(lens);
    std::vector<std::uint16_t> out;
    huffman_decode_payload_into(dec, payload, message.size(), out);
    EXPECT_EQ(out, message);

    BitReader slow(payload);
    for (auto s : message) EXPECT_EQ(dec.decode_bitwise(slow), s);
  }
}

TEST(HuffmanMultiSymbol, ShortCodesChainUpToThreePerLookup) {
  // A heavily skewed 1-bit-dominated table makes nearly every 11-bit
  // window start a 3-symbol chain — the multi-symbol fast path's best
  // case.  Correctness must hold through long runs and at the tail where
  // fewer than kMaxTableSymbols symbols remain.
  std::vector<std::uint64_t> freqs = {1000, 500, 250, 125};
  const auto lens = huffman_code_lengths(freqs);
  const auto codes = huffman_canonical_codes(lens);
  const auto packed = huffman_pack_codes(lens, codes);
  Rng rng(41);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{4}, std::size_t{5},
                              std::size_t{1000}}) {
    std::vector<std::uint16_t> message(n);
    for (auto& s : message) {
      const auto r = rng.below(16);
      s = static_cast<std::uint16_t>(r < 8 ? 0 : (r < 12 ? 1 : (r < 14 ? 2
                                                                       : 3)));
    }
    std::vector<std::uint8_t> payload;
    huffman_append_payload(message, packed, payload);
    const HuffmanDecoder dec(lens);
    std::vector<std::uint16_t> out;
    huffman_decode_payload_into(dec, payload, n, out);
    EXPECT_EQ(out, message) << "n=" << n;
  }
}

TEST(HuffmanMultiSymbol, MixedShortAndFallbackCodes) {
  // One 1-bit symbol plus a ladder down to codes longer than kTableBits:
  // chained entries and the canonical-scan fallback interleave in the same
  // payload.
  std::vector<std::uint8_t> lens = {1};
  for (unsigned l = 2; l < kMaxHuffmanBits; ++l)
    lens.push_back(static_cast<std::uint8_t>(l));
  lens.push_back(kMaxHuffmanBits - 1);
  const auto codes = huffman_canonical_codes(lens);
  const auto packed = huffman_pack_codes(lens, codes);

  std::vector<std::uint16_t> message;
  Rng rng(43);
  for (int i = 0; i < 4000; ++i) {
    // ~75% the 1-bit symbol, the rest spread across the deep ladder.
    const auto r = rng.below(4);
    message.push_back(
        r != 0 ? 0 : static_cast<std::uint16_t>(rng.below(lens.size())));
  }
  std::vector<std::uint8_t> payload;
  huffman_append_payload(message, packed, payload);
  const HuffmanDecoder dec(lens);
  std::vector<std::uint16_t> out;
  huffman_decode_payload_into(dec, payload, message.size(), out);
  EXPECT_EQ(out, message);
}

TEST(HuffmanFastDecode, OversubscribedLengthTableRejected) {
  // Kraft sum > 1 (three 1-bit codes) must be rejected at construction —
  // the lookup-table build would otherwise index out of bounds.
  const std::vector<std::uint8_t> bad = {1, 1, 1};
  EXPECT_THROW(HuffmanDecoder dec(bad), std::runtime_error);
}

TEST(HuffmanLengths, BucketedRepairPreservesOrderAndKraft) {
  // Exponential frequencies over many symbols force a deep overflow; the
  // bucketed repair must emit a Kraft-valid, length-limited table where
  // originally-shorter codes never end up longer than originally-longer
  // ones (monotone reassignment), and the stream must round-trip.
  std::vector<std::uint64_t> freqs;
  std::uint64_t f = 1;
  for (int i = 0; i < 60; ++i) {
    freqs.push_back(f);
    if (f < (std::uint64_t{1} << 62)) f *= 2;
  }
  const auto lens = huffman_code_lengths(freqs);
  std::uint64_t kraft = 0;
  unsigned max_len = 0;
  for (auto l : lens) {
    ASSERT_GT(l, 0u);
    max_len = std::max<unsigned>(max_len, l);
    kraft += std::uint64_t{1} << (kMaxHuffmanBits - l);
  }
  EXPECT_LE(max_len, kMaxHuffmanBits);
  EXPECT_LE(kraft, std::uint64_t{1} << kMaxHuffmanBits);
  // Rarer symbol (lower index here) never gets a shorter code.
  for (std::size_t a = 0; a + 1 < lens.size(); ++a)
    EXPECT_GE(lens[a], lens[a + 1]) << "symbol " << a;

  std::vector<std::uint16_t> symbols;
  for (std::uint16_t s = 0; s < freqs.size(); ++s)
    for (int rep = 0; rep < 2; ++rep) symbols.push_back(s);
  EXPECT_EQ(roundtrip(symbols, freqs.size()), symbols);
}

TEST(HuffmanErrors, SymbolCountBeyondMinLengthPayloadRejected) {
  // Hand-built stream: a complete 2-symbol table (1-bit codes) claiming
  // more symbols than the payload can hold at the minimum code length.
  ByteWriter w;
  w.put_varint(2);              // alphabet_size
  w.put_varint(2);              // n_present
  w.put_varint(0);              // symbol 0
  w.put<std::uint8_t>(1);       //   length 1
  w.put_varint(1);              // symbol 1 (delta)
  w.put<std::uint8_t>(1);       //   length 1
  w.put_varint(100);            // n_symbols: needs 100 bits
  w.put_varint(4);              // n_payload: only 32 bits
  const std::uint8_t payload[4] = {0, 0, 0, 0};
  w.put_bytes(payload);
  auto bytes = std::move(w).take();
  ByteReader r(bytes);
  EXPECT_THROW((void)huffman_decode(r), std::runtime_error);
}

TEST(HuffmanErrors, MinLengthCheckTighterThanOneBitPerSymbol) {
  // With an 8-bit minimum code length, a payload that passes the old
  // 1-bit-per-symbol check must still be rejected: 300 symbols * 8 bits
  // needs 300 bytes, not 40.
  ByteWriter w;
  w.put_varint(256);            // alphabet_size
  w.put_varint(256);            // n_present: all 256 symbols, 8-bit codes
  for (int s = 0; s < 256; ++s) {
    w.put_varint(s == 0 ? 0 : 1);
    w.put<std::uint8_t>(8);
  }
  w.put_varint(300);            // n_symbols
  w.put_varint(40);             // n_payload: 320 bits < 300 * 8
  const std::vector<std::uint8_t> payload(40, 0);
  w.put_bytes(payload);
  auto bytes = std::move(w).take();
  ByteReader r(bytes);
  EXPECT_THROW((void)huffman_decode(r), std::runtime_error);
}

// --- split-phase API (the parallel slab codec's building blocks) ----------

TEST(HuffmanSplitPhase, HistogramMatchesNaiveCount) {
  Rng rng(99);
  std::vector<std::uint16_t> symbols(5000);
  for (auto& s : symbols) s = static_cast<std::uint16_t>(rng.below(200));
  const auto freqs = huffman_histogram(symbols, 256);
  std::vector<std::uint64_t> naive(256, 0);
  for (auto s : symbols) ++naive[s];
  EXPECT_EQ(freqs, naive);
  EXPECT_THROW((void)huffman_histogram(symbols, 100),
               std::invalid_argument);  // out-of-alphabet symbol
}

TEST(HuffmanSplitPhase, MergedHistogramPayloadRoundTrip) {
  // The parallel codec's exact flow: histogram two "slabs" independently,
  // merge, assign one table, emit both payloads separately, decode both.
  Rng rng(7);
  std::vector<std::uint16_t> slab_a(3000), slab_b(1777);
  for (auto& s : slab_a) s = static_cast<std::uint16_t>(rng.below(300));
  for (auto& s : slab_b) s = static_cast<std::uint16_t>(rng.below(300));
  const auto ha = huffman_histogram(slab_a, 512);
  const auto hb = huffman_histogram(slab_b, 512);
  std::vector<std::uint64_t> merged(512, 0);
  for (std::size_t s = 0; s < 512; ++s) merged[s] = ha[s] + hb[s];
  const auto lengths = huffman_code_lengths(merged);
  const auto codes = huffman_canonical_codes(lengths);
  const auto packed = huffman_pack_codes(lengths, codes);

  std::vector<std::uint8_t> pa, pb;
  huffman_append_payload(slab_a, packed, pa);
  huffman_append_payload(slab_b, packed, pb);

  ByteWriter tw;
  huffman_write_lengths(lengths, tw);
  auto table_bytes = std::move(tw).take();
  ByteReader tr(table_bytes);
  const auto read_lengths = huffman_read_lengths(tr);
  EXPECT_EQ(read_lengths, lengths);

  const HuffmanDecoder dec(read_lengths);
  std::vector<std::uint16_t> out;
  huffman_decode_payload_into(dec, pa, slab_a.size(), out);
  EXPECT_EQ(out, slab_a);
  huffman_decode_payload_into(dec, pb, slab_b.size(), out);
  EXPECT_EQ(out, slab_b);
}

TEST(HuffmanSplitPhase, PayloadBitsHintMatchesScan) {
  Rng rng(3);
  std::vector<std::uint16_t> symbols(2048);
  for (auto& s : symbols) s = static_cast<std::uint16_t>(rng.below(64));
  const auto freqs = huffman_histogram(symbols, 64);
  const auto lengths = huffman_code_lengths(freqs);
  const auto packed = huffman_pack_codes(lengths,
                                         huffman_canonical_codes(lengths));
  std::uint64_t bits = 0;
  for (std::size_t s = 0; s < 64; ++s) bits += freqs[s] * lengths[s];
  std::vector<std::uint8_t> with_hint, without;
  huffman_append_payload(symbols, packed, with_hint, bits);
  huffman_append_payload(symbols, packed, without);
  EXPECT_EQ(with_hint, without);
}

TEST(HuffmanSplitPhase, DecodePayloadRejectsOverdeclaredCount) {
  std::vector<std::uint16_t> symbols(100, 1);
  for (std::size_t i = 0; i < 50; ++i) symbols[i * 2] = 0;
  const auto freqs = huffman_histogram(symbols, 4);
  const auto lengths = huffman_code_lengths(freqs);
  const auto packed = huffman_pack_codes(lengths,
                                         huffman_canonical_codes(lengths));
  std::vector<std::uint8_t> payload;
  huffman_append_payload(symbols, packed, payload);
  const HuffmanDecoder dec(lengths);
  std::vector<std::uint16_t> out;
  huffman_decode_payload_into(dec, payload, 100, out);
  EXPECT_EQ(out, symbols);
  EXPECT_THROW(huffman_decode_payload_into(dec, payload, 100000, out),
               std::runtime_error);
}

class HuffmanAlphabetSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HuffmanAlphabetSweep, RoundTripRandomSymbols) {
  const std::size_t alphabet = GetParam();
  Rng rng(alphabet);
  std::vector<std::uint16_t> symbols(4000);
  for (auto& s : symbols)
    s = static_cast<std::uint16_t>(rng.below(alphabet));
  EXPECT_EQ(roundtrip(symbols, alphabet), symbols);
}

INSTANTIATE_TEST_SUITE_P(Alphabets, HuffmanAlphabetSweep,
                         ::testing::Values(2, 3, 4, 15, 63, 255, 511, 2047,
                                           4095, 16383, 65535, 65536));

}  // namespace
}  // namespace sz14
