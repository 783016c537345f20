// Canonical Huffman coder for arbitrary alphabet sizes.
//
// The paper (Sec. IV-A) notes that off-the-shelf Huffman implementations
// handle byte alphabets only (256 symbols), while SZ-1.4 needs up to
// 2^16 quantization codes; its authors "implement a highly efficient Huffman
// coding algorithm that can handle a source with any number of quantization
// codes".  This module is that substrate: it builds length-limited canonical
// codes over alphabets up to 2^16 symbols, serializes the code table
// compactly, and decodes with a primary N-bit prefix lookup table backed by
// the canonical first-code scan for codes longer than N bits.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/bytebuffer.hpp"

namespace sz14 {

/// Maximum code length produced by the encoder.  Lengths are limited with
/// the standard heuristic (rebalancing overflowed leaves), so decoding
/// tables stay small and the bit reader never sees pathological depths.
inline constexpr unsigned kMaxHuffmanBits = 32;

/// Compute canonical Huffman code lengths for `freqs` (one entry per symbol;
/// zero-frequency symbols get length 0).  Lengths are limited to
/// `max_bits`.  Handles the degenerate 0- and 1-distinct-symbol cases.
std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs, unsigned max_bits = kMaxHuffmanBits);

/// Assign canonical codewords from lengths: symbols sorted by (length,
/// symbol); returns per-symbol codes (valid where length > 0).
std::vector<std::uint32_t> huffman_canonical_codes(
    std::span<const std::uint8_t> lengths);

/// One-shot encoder: histogram -> canonical table -> serialized
/// (table + bit-packed payload).  `alphabet_size` must be > every symbol.
/// Layout:
///   varint alphabet_size | varint n_present | (varint sym, u8 len)* |
///   varint n_symbols | varint n_payload_bytes | payload bytes
void huffman_encode(std::span<const std::uint16_t> symbols,
                    std::size_t alphabet_size, ByteWriter& out);

/// Inverse of huffman_encode().  Throws std::runtime_error on malformed
/// input.
std::vector<std::uint16_t> huffman_decode(ByteReader& in);

// --- split-phase API -------------------------------------------------------
//
// The parallel slab codec shares ONE canonical table across all slabs of a
// field: each worker histograms its own slab (huffman_histogram), the
// histograms are merged before code assignment, and every slab's payload is
// then emitted/decoded independently against the shared table.  These
// pieces are exactly the phases huffman_encode()/huffman_decode() are built
// from, exposed so the phases can run on different threads.

/// Histogram of `symbols` over [0, alphabet_size).  Throws
/// std::invalid_argument on an out-of-alphabet symbol.  Alphabets up to
/// 2048 symbols take the 8-way interleaved counting fast path.
std::vector<std::uint64_t> huffman_histogram(
    std::span<const std::uint16_t> symbols, std::size_t alphabet_size);

/// Packed per-symbol (code << 8 | length) entries, the table format the
/// payload emitters consume (code lengths <= kMaxHuffmanBits <= 32, so a
/// packed entry always fits 40 bits).
std::vector<std::uint64_t> huffman_pack_codes(
    std::span<const std::uint8_t> lengths,
    std::span<const std::uint32_t> codes);

/// Append the MSB-first bit payload of `symbols` (bits only — no table, no
/// counts, final partial byte zero-padded) to `out`.  Byte-for-byte the
/// payload layout huffman_encode() writes.  `total_bits_hint`, when
/// nonzero, must equal the exact bit count of the payload (sum of
/// freq * length — callers holding a histogram know it); 0 means "count by
/// scanning the symbols first".
void huffman_append_payload(std::span<const std::uint16_t> symbols,
                            std::span<const std::uint64_t> packed,
                            std::vector<std::uint8_t>& out,
                            std::uint64_t total_bits_hint = 0);

/// Serialize per-symbol code lengths in huffman_encode()'s table layout
/// (varint alphabet | varint n_present | delta-coded (varint sym, u8 len)*).
void huffman_write_lengths(std::span<const std::uint8_t> lengths,
                           ByteWriter& out);

/// Inverse of huffman_write_lengths().  Throws std::runtime_error on
/// malformed input.
std::vector<std::uint8_t> huffman_read_lengths(ByteReader& in);

/// Decode a raw bit payload produced by huffman_append_payload() with the
/// same table into a caller-owned vector, so batch decoders can reuse its
/// capacity across calls: `n_symbols` is checked against the payload (it
/// must fit the payload bits), then the first min(limit, n_symbols)
/// symbols are decoded (`out` is resized to that count).  Throws on
/// truncated or corrupt payloads.
void huffman_decode_payload_into(
    const class HuffmanDecoder& dec, std::span<const std::uint8_t> payload,
    std::size_t n_symbols, std::vector<std::uint16_t>& out,
    std::size_t limit = std::numeric_limits<std::size_t>::max());

/// Decoder table reusable across blocks.  decode() consults a primary
/// kTableBits-wide prefix lookup table (one peek resolves any code of up to
/// kTableBits bits); longer codes fall back to the canonical first-code
/// scan, which decode_bitwise() also exposes directly as the oracle for
/// equivalence tests.
///
/// Each primary-table entry is *multi-symbol*: when up to kMaxTableSymbols
/// concatenated codes fit inside the kTableBits window, the entry carries
/// all of them plus the total bit length, so the payload decode loop emits
/// several symbols per peek.  Quantization-code streams are heavily skewed
/// toward the zero-offset symbol (short codes), making 2-3-symbol entries
/// the common case.
class HuffmanDecoder {
 public:
  /// Build from per-symbol code lengths.
  explicit HuffmanDecoder(std::span<const std::uint8_t> lengths);

  /// Decode one symbol from an MSB-first bit reader (table fast path).
  [[nodiscard]] std::uint16_t decode(class BitReader& br) const;

  /// Bit-by-bit canonical-scan decode — same result as decode(), one
  /// br.get(1) per code bit.
  [[nodiscard]] std::uint16_t decode_bitwise(class BitReader& br) const;

  /// Shortest nonzero code length (0 when the table is empty) — the floor
  /// used by huffman_decode()'s corruption sanity check.
  [[nodiscard]] unsigned min_length() const noexcept { return min_len_; }
  [[nodiscard]] unsigned max_length() const noexcept { return max_len_; }

  /// Raw multi-symbol primary table, for the batch payload decode loop.
  /// Entry layout (0 = no complete code in the window, take the scan path):
  ///   bits  0..3   length of the first code (what decode() consumes)
  ///   bits  4..7   total bits consumed by all packed symbols
  ///   bits  8..9   symbol count - 1 (1..kMaxTableSymbols symbols)
  ///   bits 16..31  symbol 0;  32..47  symbol 1;  48..63  symbol 2
  [[nodiscard]] const std::uint64_t* table() const noexcept {
    return table_.data();
  }
  [[nodiscard]] unsigned table_bits() const noexcept { return table_bits_; }

  /// Width of the primary lookup table in bits.
  static constexpr unsigned kTableBits = 11;
  /// Maximum symbols packed into one primary-table entry.
  static constexpr unsigned kMaxTableSymbols = 3;

 private:
  // first_code_[l] = canonical code value of the first length-l symbol,
  // offset_[l] = index into sorted_ of that symbol.
  std::vector<std::uint32_t> first_code_;
  std::vector<std::uint32_t> count_;
  std::vector<std::uint32_t> offset_;
  std::vector<std::uint16_t> sorted_;
  // Primary multi-symbol table (layout above); entry 0 marks "first code
  // longer than table_bits_" (fall back to the canonical scan).
  std::vector<std::uint64_t> table_;
  unsigned table_bits_ = 0;
  unsigned max_len_ = 0;
  unsigned min_len_ = 0;
};

/// Shannon entropy (bits/symbol) of a symbol stream — used by tests and the
/// adaptive-interval analysis to sanity-check Huffman efficiency.
double shannon_entropy_bits(std::span<const std::uint16_t> symbols,
                            std::size_t alphabet_size);

}  // namespace sz14
