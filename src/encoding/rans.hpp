// Interleaved two-stream byte-aligned rANS coder.
//
// The Huffman coder (encoding/huffman.hpp) is the seed-faithful default and
// stays bit-identical across modes; this module is the alternative entropy
// backend behind the stream registry (ExecPolicy::entropy selects it per
// call).  It is a table-based range ANS in the FSE/zstd lineage: symbol
// frequencies are normalized to a power-of-two scale, two uint32 states are
// interleaved across alternating symbols (independent dependency chains, the
// classic 2x ILP trick), and renormalization is byte-at-a-time so the payload
// needs no bit reader at all.  On the heavily skewed quantization-code
// distribution (the paper's Figure 3 shape) rANS approaches the fractional
// Shannon bound that whole-bit Huffman codes round up — sub-bit cost for the
// dominant zero-offset symbol — at a comparable decode rate.
//
// Split-phase API mirrors huffman.hpp so the parallel slab codec can share
// ONE normalized frequency table across all slabs of a field.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/bytebuffer.hpp"

namespace sz14 {

/// Lower bound of the encoder/decoder state interval [kRansL, kRansL << 8).
inline constexpr std::uint32_t kRansL = 1u << 23;
/// Frequencies are normalized to sum to exactly 1 << kRansProbBits.  16 bits
/// guarantees every present symbol of a full 2^16 alphabet can hold a
/// nonzero slot.
inline constexpr unsigned kRansProbBits = 16;
inline constexpr std::uint32_t kRansProbScale = 1u << kRansProbBits;
/// Magic prefixing a serialized rANS section ("RANS" big-endian).
inline constexpr std::uint32_t kRansMagic = 0x52414E53;

/// Scale a raw histogram to frequencies summing to exactly kRansProbScale,
/// with every present symbol kept >= 1 (zero-count symbols stay 0).
/// Deterministic: the correction is applied to the largest buckets first,
/// ties broken by symbol id.  Throws std::invalid_argument when the
/// alphabet exceeds 2^16.
std::vector<std::uint32_t> rans_normalize_freqs(
    std::span<const std::uint64_t> counts);

/// Serialize a normalized frequency table:
///   varint alphabet | varint n_present | (varint delta_sym, varint freq)*
void rans_write_freqs(std::span<const std::uint32_t> freqs, ByteWriter& out);

/// Inverse of rans_write_freqs().  Validates the sum is exactly
/// kRansProbScale (or all-zero for an empty stream); throws
/// std::runtime_error on malformed input.
std::vector<std::uint32_t> rans_read_freqs(ByteReader& in);

/// Per-symbol (freq, cumulative freq) pair table for the encoder.
class RansEncTable {
 public:
  /// Build from normalized frequencies (rans_normalize_freqs output).
  explicit RansEncTable(std::span<const std::uint32_t> freqs);

  [[nodiscard]] std::uint32_t freq(std::uint16_t s) const {
    return freq_[s];
  }
  [[nodiscard]] std::uint32_t cum(std::uint16_t s) const { return cum_[s]; }
  [[nodiscard]] std::size_t alphabet_size() const noexcept {
    return freq_.size();
  }

 private:
  std::vector<std::uint32_t> freq_;
  std::vector<std::uint32_t> cum_;
};

/// Append the raw two-stream rANS payload of `symbols` to `out` (no table,
/// no counts — the framing huffman_append_payload's callers write
/// themselves).  Layout: state0 (4 bytes big-endian) | state1 | renorm
/// bytes in decode order.  Empty symbol spans append nothing.  Throws
/// std::invalid_argument if a symbol has zero normalized frequency.
void rans_append_payload(std::span<const std::uint16_t> symbols,
                         const RansEncTable& table,
                         std::vector<std::uint8_t>& out);

/// Decoder tables reusable across blocks/slabs: slot -> symbol over the full
/// kRansProbScale range plus the encoder's (freq, cum) pairs.
class RansDecoder {
 public:
  /// Build from normalized frequencies; throws std::runtime_error unless
  /// they sum to exactly kRansProbScale.
  explicit RansDecoder(std::span<const std::uint32_t> freqs);

  /// Decode the first min(limit, n_symbols) of the `n_symbols` symbols of
  /// a rans_append_payload() payload into `out` (resized to that count).
  /// Throws std::runtime_error on truncated or corrupt payloads: a
  /// nonempty payload for zero symbols, a count past 2^38 (checked before
  /// `out` grows, since the payload size bounds nothing), out-of-interval
  /// initial states or renormalization running past the payload end; and,
  /// when all n_symbols are decoded, final states that do not return to
  /// kRansL or unconsumed trailing bytes.
  void decode_payload_into(
      std::span<const std::uint8_t> payload, std::size_t n_symbols,
      std::vector<std::uint16_t>& out,
      std::size_t limit = std::numeric_limits<std::size_t>::max()) const;

  [[nodiscard]] std::size_t alphabet_size() const noexcept {
    return freq_.size();
  }

 private:
  std::vector<std::uint16_t> slot2sym_;  // kRansProbScale entries
  std::vector<std::uint32_t> freq_;
  std::vector<std::uint32_t> cum_;
};

/// One-shot section encoder, the rANS counterpart of huffman_encode():
///   u32 kRansMagic | freq table (rans_write_freqs layout, alphabet
///   included) | varint n_symbols | varint n_payload_bytes | payload
/// `alphabet_size` must be > every symbol.
void rans_encode(std::span<const std::uint16_t> symbols,
                 std::size_t alphabet_size, ByteWriter& out);

/// Inverse of rans_encode().  `max_symbols` caps the declared symbol count
/// BEFORE any allocation — unlike Huffman, a degenerate one-symbol rANS
/// stream spends ~0 bits per symbol, so the payload size bounds nothing and
/// the caller must supply the count it expects (e.g. dims.count()).
/// Decodes the first min(limit, n_symbols) symbols, consumes the whole
/// section from `in` and returns the declared count.
std::size_t rans_decode_into(
    ByteReader& in, std::vector<std::uint16_t>& out, std::size_t max_symbols,
    std::size_t limit = std::numeric_limits<std::size_t>::max());
std::vector<std::uint16_t> rans_decode(ByteReader& in,
                                       std::size_t max_symbols);

}  // namespace sz14
