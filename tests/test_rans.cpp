#include "encoding/rans.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "common/bytebuffer.hpp"
#include "common/dims.hpp"
#include "common/rng.hpp"
#include "core/chunk_codec.hpp"
#include "core/compressor.hpp"
#include "encoding/huffman.hpp"

namespace sz14 {
namespace {

/// One chunk's rANS section as the split-phase API lays it out:
///   rans_write_freqs table | varint n_payload_bytes | payload
std::vector<std::uint8_t> encode_section(
    std::span<const std::uint16_t> symbols, std::size_t alphabet) {
  const auto freqs =
      rans_normalize_freqs(huffman_histogram(symbols, alphabet));
  std::vector<std::uint8_t> payload;
  rans_append_payload(symbols, RansEncTable(freqs), payload);
  ByteWriter w;
  rans_write_freqs(freqs, w);
  w.put_varint(payload.size());
  w.put_bytes(payload);
  return std::move(w).take();
}

/// Inverse of encode_section(); `n_symbols` comes from the caller, as it
/// does from a stream header.
std::vector<std::uint16_t> decode_section(std::span<const std::uint8_t> bytes,
                                          std::size_t n_symbols) {
  ByteReader r(bytes);
  const RansDecoder dec(rans_read_freqs(r));
  const auto payload = r.get_bytes(static_cast<std::size_t>(r.get_varint()));
  std::vector<std::uint16_t> out;
  dec.decode_payload_into(payload, n_symbols, out);
  return out;
}

std::vector<std::uint16_t> roundtrip(std::span<const std::uint16_t> symbols,
                                     std::size_t alphabet) {
  return decode_section(encode_section(symbols, alphabet), symbols.size());
}

TEST(RansNormalize, SumsToScaleAndKeepsPresentSymbols) {
  Rng rng(3);
  std::vector<std::uint64_t> counts(700, 0);
  for (auto& c : counts) c = rng.below(5000);
  counts[0] = 0;  // absent symbol must stay absent
  counts[1] = 1;  // rare symbol must keep a slot
  const auto freqs = rans_normalize_freqs(counts);
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    sum += freqs[s];
    if (counts[s] == 0)
      EXPECT_EQ(freqs[s], 0u) << "symbol " << s;
    else
      EXPECT_GE(freqs[s], 1u) << "symbol " << s;
  }
  EXPECT_EQ(sum, kRansProbScale);
}

TEST(RansNormalize, EmptyHistogramStaysAllZero) {
  const std::vector<std::uint64_t> counts(16, 0);
  const auto freqs = rans_normalize_freqs(counts);
  for (auto f : freqs) EXPECT_EQ(f, 0u);
}

TEST(RansNormalize, FullAlphabetEverySymbolPresent) {
  // 2^16 present symbols is the tight case: exactly one slot each.
  std::vector<std::uint64_t> counts(std::size_t{1} << 16, 1);
  const auto freqs = rans_normalize_freqs(counts);
  for (auto f : freqs) EXPECT_EQ(f, 1u);
}

TEST(RansNormalize, OversizedAlphabetThrows) {
  const std::vector<std::uint64_t> counts((std::size_t{1} << 16) + 1, 1);
  EXPECT_THROW((void)rans_normalize_freqs(counts), std::invalid_argument);
}

TEST(RansNormalize, Deterministic) {
  Rng rng(11);
  std::vector<std::uint64_t> counts(300);
  for (auto& c : counts) c = rng.below(1000);
  EXPECT_EQ(rans_normalize_freqs(counts), rans_normalize_freqs(counts));
}

TEST(RansFreqTable, WriteReadRoundTrip) {
  Rng rng(5);
  std::vector<std::uint64_t> counts(512, 0);
  for (std::size_t s = 0; s < counts.size(); s += 3)
    counts[s] = 1 + rng.below(2000);
  const auto freqs = rans_normalize_freqs(counts);
  ByteWriter w;
  rans_write_freqs(freqs, w);
  auto bytes = std::move(w).take();
  ByteReader r(bytes);
  EXPECT_EQ(rans_read_freqs(r), freqs);
}

TEST(RansRoundTrip, ByteAlphabet) {
  Rng rng(11);
  std::vector<std::uint16_t> symbols(10000);
  for (auto& s : symbols) s = static_cast<std::uint16_t>(rng.below(256));
  EXPECT_EQ(roundtrip(symbols, 256), symbols);
}

TEST(RansRoundTrip, SingleSymbolStream) {
  // Degenerate distribution: the whole interval belongs to one symbol, so
  // the payload is just the two state flushes (~0 bits/symbol).
  const std::vector<std::uint16_t> symbols(5000, 7);
  const auto bytes = encode_section(symbols, 16);
  EXPECT_LT(bytes.size(), 32u);  // 8 payload bytes + table
  EXPECT_EQ(decode_section(bytes, symbols.size()), symbols);
}

TEST(RansRoundTrip, EmptyStream) {
  const std::vector<std::uint16_t> symbols;
  EXPECT_EQ(roundtrip(symbols, 256), symbols);
}

TEST(RansRoundTrip, SingleElementStream) {
  const std::vector<std::uint16_t> symbols = {3};
  EXPECT_EQ(roundtrip(symbols, 8), symbols);
}

TEST(RansRoundTrip, LargeAlphabet64K) {
  Rng rng(13);
  std::vector<std::uint16_t> symbols(20000);
  for (auto& s : symbols) s = static_cast<std::uint16_t>(rng.below(65536));
  EXPECT_EQ(roundtrip(symbols, 65536), symbols);
}

TEST(RansRoundTrip, SkewedQuantizationLikeDistribution) {
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

TEST(RansEfficiency, SubBitCostBeatsHuffmanOnDominantSymbol) {
  // ~97% of mass on one symbol: entropy is ~0.25 bits/symbol, which Huffman
  // must round up to a whole bit.  rANS has to land under that — the
  // fractional-bit advantage is the whole reason the backend exists.
  Rng rng(19);
  std::vector<std::uint16_t> symbols;
  symbols.reserve(100000);
  for (int i = 0; i < 100000; ++i) {
    const auto r = rng.below(1000);
    symbols.push_back(static_cast<std::uint16_t>(
        r < 970 ? 128 : (r < 985 ? 127 : 129)));
  }
  const auto rans_bytes = encode_section(symbols, 256);
  ByteWriter hw;
  huffman_encode(symbols, 256, hw);
  const double rans_bits =
      8.0 * static_cast<double>(rans_bytes.size()) /
      static_cast<double>(symbols.size());
  const double entropy = shannon_entropy_bits(symbols, 256);
  EXPECT_LT(rans_bits, entropy + 0.05);
  EXPECT_LT(rans_bytes.size(), hw.size());
}

TEST(RansSplitPhase, SharedTableAcrossSlabs) {
  // The parallel codec's flow: one normalized table built from the merged
  // histogram, per-slab payloads appended and decoded independently.
  Rng rng(7);
  std::vector<std::uint16_t> slab_a(3000), slab_b(1777);
  for (auto& s : slab_a) s = static_cast<std::uint16_t>(rng.below(300));
  for (auto& s : slab_b) s = static_cast<std::uint16_t>(rng.below(300));
  std::vector<std::uint64_t> merged(512, 0);
  for (auto s : slab_a) ++merged[s];
  for (auto s : slab_b) ++merged[s];
  const auto freqs = rans_normalize_freqs(merged);
  const RansEncTable table(freqs);
  std::vector<std::uint8_t> pa, pb;
  rans_append_payload(slab_a, table, pa);
  rans_append_payload(slab_b, table, pb);

  ByteWriter tw;
  rans_write_freqs(freqs, tw);
  auto table_bytes = std::move(tw).take();
  ByteReader tr(table_bytes);
  const RansDecoder dec(rans_read_freqs(tr));
  std::vector<std::uint16_t> out;
  dec.decode_payload_into(pa, slab_a.size(), out);
  EXPECT_EQ(out, slab_a);
  dec.decode_payload_into(pb, slab_b.size(), out);
  EXPECT_EQ(out, slab_b);
}

TEST(RansErrors, ZeroFrequencySymbolThrowsOnEncode) {
  std::vector<std::uint64_t> counts(8, 0);
  counts[1] = 100;
  const auto freqs = rans_normalize_freqs(counts);
  const RansEncTable table(freqs);
  const std::vector<std::uint16_t> bad = {1, 3, 1};  // 3 has no slots
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(rans_append_payload(bad, table, payload),
               std::invalid_argument);
}

TEST(RansErrors, SymbolOutOfAlphabetThrows) {
  const auto freqs = rans_normalize_freqs(std::vector<std::uint64_t>(4, 1));
  const std::vector<std::uint16_t> symbols = {4};
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(rans_append_payload(symbols, RansEncTable(freqs), payload),
               std::invalid_argument);
}

TEST(RansErrors, BadTagRejectedThroughEntropyTable) {
  // The SZ14 stream tags its rANS table with kRansMagic; a table whose tag
  // is off by one bit must be refused before the frequencies are read.
  const std::vector<std::uint16_t> symbols = {1, 2, 2, 3};
  const auto hist = huffman_histogram(symbols, 4);
  ByteWriter w;
  EntropyTable(EntropyBackend::kRans, hist).write(w, /*tagged=*/true);
  auto bytes = std::move(w).take();
  {
    ByteReader r(bytes);
    EXPECT_EQ(r.get<std::uint32_t>(), kRansMagic);
  }
  {
    ByteReader r(bytes);
    const EntropyTable table(EntropyBackend::kRans, r, /*tagged=*/true);
    EXPECT_EQ(r.remaining(), 0u);
  }
  bytes[0] ^= 0x01;
  ByteReader r(bytes);
  EXPECT_THROW(EntropyTable(EntropyBackend::kRans, r, /*tagged=*/true),
               std::runtime_error);
}

TEST(RansErrors, MalformedFreqTables) {
  const auto read = [](const std::function<void(ByteWriter&)>& fill) {
    ByteWriter w;
    fill(w);
    auto bytes = std::move(w).take();
    ByteReader r(bytes);
    return rans_read_freqs(r);
  };
  // Sum below the scale.
  EXPECT_THROW((void)read([](ByteWriter& w) {
                 w.put_varint(4);
                 w.put_varint(1);
                 w.put_varint(0);
                 w.put_varint(100);
               }),
               std::runtime_error);
  // Frequency above the scale.
  EXPECT_THROW((void)read([](ByteWriter& w) {
                 w.put_varint(4);
                 w.put_varint(1);
                 w.put_varint(0);
                 w.put_varint(kRansProbScale + 1);
               }),
               std::runtime_error);
  // Symbol index past the alphabet.
  EXPECT_THROW((void)read([](ByteWriter& w) {
                 w.put_varint(4);
                 w.put_varint(1);
                 w.put_varint(9);
                 w.put_varint(kRansProbScale);
               }),
               std::runtime_error);
  // Duplicate symbol (zero delta on the second entry).
  EXPECT_THROW((void)read([](ByteWriter& w) {
                 w.put_varint(4);
                 w.put_varint(2);
                 w.put_varint(0);
                 w.put_varint(kRansProbScale / 2);
                 w.put_varint(0);
                 w.put_varint(kRansProbScale / 2);
               }),
               std::runtime_error);
  // Zero frequency on a present symbol.
  EXPECT_THROW((void)read([](ByteWriter& w) {
                 w.put_varint(4);
                 w.put_varint(1);
                 w.put_varint(0);
                 w.put_varint(0);
               }),
               std::runtime_error);
  // Oversized alphabet.
  EXPECT_THROW((void)read([](ByteWriter& w) {
                 w.put_varint((std::size_t{1} << 16) + 1);
                 w.put_varint(0);
               }),
               std::runtime_error);
}

TEST(RansErrors, NonemptyPayloadForEmptyStreamRejected) {
  const RansDecoder dec(std::vector<std::uint32_t>(4, 0));
  const std::uint8_t junk[3] = {1, 2, 3};
  std::vector<std::uint16_t> out;
  EXPECT_THROW(dec.decode_payload_into(junk, 0, out), std::runtime_error);
}

TEST(RansErrors, TruncationSweepAlwaysThrows) {
  // Chop a valid section at EVERY byte boundary: the decoder must throw
  // cleanly each time — never overread (ASan/UBSan enforce that part).
  Rng rng(23);
  std::vector<std::uint16_t> symbols(800);
  for (auto& s : symbols) s = static_cast<std::uint16_t>(rng.below(40));
  const auto bytes = encode_section(symbols, 64);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(
        (void)decode_section(
            std::span<const std::uint8_t>(bytes.data(), cut), symbols.size()),
        std::runtime_error)
        << "cut at " << cut;
  }
}

TEST(RansErrors, PayloadBitFlipSweepNeverCrashes) {
  // Flip one byte at a time through the whole section.  Most flips are
  // caught (wrong final state, bad table, renorm off the end); a flip may
  // legitimately decode to different symbols, but it must never read out
  // of bounds or fail to produce exactly n symbols.
  Rng rng(29);
  std::vector<std::uint16_t> symbols(600);
  for (auto& s : symbols) s = static_cast<std::uint16_t>(rng.below(100));
  const auto bytes = encode_section(symbols, 128);
  std::size_t threw = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto corrupt = bytes;
    corrupt[i] ^= 0x55;
    try {
      EXPECT_EQ(decode_section(corrupt, symbols.size()).size(),
                symbols.size());
    } catch (const std::exception&) {
      ++threw;
    }
  }
  EXPECT_GT(threw, 0u);  // corruption is actually being detected
}

TEST(RansErrors, TruncatedPayloadAtDecoderLevel) {
  Rng rng(31);
  std::vector<std::uint16_t> symbols(2000);
  for (auto& s : symbols) s = static_cast<std::uint16_t>(rng.below(50));
  std::vector<std::uint64_t> counts(64, 0);
  for (auto s : symbols) ++counts[s];
  const auto freqs = rans_normalize_freqs(counts);
  const RansEncTable table(freqs);
  std::vector<std::uint8_t> payload;
  rans_append_payload(symbols, table, payload);
  const RansDecoder dec(freqs);
  std::vector<std::uint16_t> out;
  dec.decode_payload_into(payload, symbols.size(), out);
  EXPECT_EQ(out, symbols);
  // Every truncation must throw; declared-count overruns too.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{4},
                                std::size_t{7}, payload.size() / 2,
                                payload.size() - 1}) {
    EXPECT_THROW(
        dec.decode_payload_into(
            std::span<const std::uint8_t>(payload.data(), cut),
            symbols.size(), out),
        std::runtime_error)
        << "cut at " << cut;
  }
  EXPECT_THROW(dec.decode_payload_into(payload, symbols.size() + 1, out),
               std::runtime_error);
}

// --- end-to-end through the compressor ------------------------------------

TEST(RansEndToEnd, CompressedStreamRoundTripsWithinBound) {
  const Dims dims{64, 48};
  std::vector<float> field(dims.count());
  for (std::size_t i = 0; i < dims.count(); ++i) {
    const double x = static_cast<double>(i % 48) / 48.0;
    const double y = static_cast<double>(i / 48) / 64.0;
    field[i] = static_cast<float>(std::sin(6.0 * x) * std::cos(4.0 * y));
  }
  Options opts;
  opts.eb_abs = 1e-4;
  opts.exec.entropy = EntropyBackend::kRans;
  const auto stream = compress(std::span<const float>(field), dims, opts);

  // The header flag is on the stream, so a default-policy decompress must
  // route to the rANS decoder by itself.
  const auto out = decompress(stream);
  ASSERT_EQ(out.data.size(), field.size());
  for (std::size_t i = 0; i < field.size(); ++i)
    ASSERT_LE(std::fabs(field[i] - out.data[i]), 1e-4) << "at " << i;

  // Same codes, different entropy stage: reconstruction must be
  // bit-identical to the Huffman-backend stream's.
  Options hopts = opts;
  hopts.exec.entropy = EntropyBackend::kHuffman;
  const auto hstream = compress(std::span<const float>(field), dims, hopts);
  const auto hout = decompress(hstream);
  EXPECT_EQ(out.data, hout.data);
  EXPECT_NE(stream, hstream);
}

TEST(RansEndToEnd, TruncatedStreamSweepRejectedCleanly) {
  const Dims dims{32, 32};
  std::vector<float> field(dims.count());
  for (std::size_t i = 0; i < dims.count(); ++i)
    field[i] = static_cast<float>(std::sin(0.05 * static_cast<double>(i)));
  Options opts;
  opts.eb_abs = 1e-3;
  opts.exec.entropy = EntropyBackend::kRans;
  const auto stream = compress(std::span<const float>(field), dims, opts);
  for (std::size_t cut = 0; cut < stream.size(); cut += 7) {
    std::span<const std::uint8_t> prefix(stream.data(), cut);
    EXPECT_THROW((void)decompress(prefix), std::runtime_error)
        << "cut at " << cut;
  }
}

class RansAlphabetSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RansAlphabetSweep, RoundTripRandomSymbols) {
  const std::size_t alphabet = GetParam();
  Rng rng(alphabet);
  std::vector<std::uint16_t> symbols(4000);
  for (auto& s : symbols)
    s = static_cast<std::uint16_t>(rng.below(alphabet));
  EXPECT_EQ(roundtrip(symbols, alphabet), symbols);
}

INSTANTIATE_TEST_SUITE_P(Alphabets, RansAlphabetSweep,
                         ::testing::Values(2, 3, 4, 15, 63, 255, 511, 2047,
                                           4095, 16383, 65535, 65536));

}  // namespace
}  // namespace sz14
