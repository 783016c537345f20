#include "encoding/huffman.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <queue>
#include <stdexcept>

#include "common/bitstream.hpp"

namespace sz14 {

namespace {

// Big-endian interpretation of an 8-byte window (the payload is MSB-first),
// mirroring BitReader's internal load.
inline std::uint64_t load_bswap64(std::uint64_t v) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_bswap64(v);
#else
  v = ((v & 0x00FF'00FF'00FF'00FFull) << 8) |
      ((v >> 8) & 0x00FF'00FF'00FF'00FFull);
  v = ((v & 0x0000'FFFF'0000'FFFFull) << 16) |
      ((v >> 16) & 0x0000'FFFF'0000'FFFFull);
  return (v << 32) | (v >> 32);
#endif
}

struct Node {
  std::uint64_t freq;
  std::int32_t left;    // node index or -1
  std::int32_t right;   // node index or -1
  std::uint32_t symbol; // leaf only
  std::uint32_t order;  // tie-breaker for deterministic trees
};

struct NodeCmp {
  const std::vector<Node>* nodes;
  bool operator()(std::int32_t a, std::int32_t b) const {
    const Node& na = (*nodes)[static_cast<std::size_t>(a)];
    const Node& nb = (*nodes)[static_cast<std::size_t>(b)];
    if (na.freq != nb.freq) return na.freq > nb.freq;  // min-heap by freq
    return na.order > nb.order;
  }
};

void assign_depths(const std::vector<Node>& nodes, std::int32_t root,
                   std::vector<std::uint8_t>& lengths) {
  // Iterative DFS; depth of a leaf = code length.
  std::vector<std::pair<std::int32_t, unsigned>> stack;
  stack.emplace_back(root, 0);
  while (!stack.empty()) {
    auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& n = nodes[static_cast<std::size_t>(idx)];
    if (n.left < 0 && n.right < 0) {
      lengths[n.symbol] =
          static_cast<std::uint8_t>(std::max(1u, std::min(depth, 255u)));
      continue;
    }
    if (n.left >= 0) stack.emplace_back(n.left, depth + 1);
    if (n.right >= 0) stack.emplace_back(n.right, depth + 1);
  }
}

// Enforce the Kraft inequality after clamping overlong codes to max_bits.
// Bucketed repair: work on per-length counts with an integer Kraft sum (in
// units of 2^-max_bits), repeatedly moving one symbol from the longest
// sub-max length l to l+1 (the cheapest unit of Kraft reduction), then
// reassign lengths to symbols by (original clamped length, symbol id) so
// the result is deterministic and shorter original codes stay shorter.
void limit_lengths(std::vector<std::uint8_t>& lengths, unsigned max_bits) {
  bool overflow = false;
  for (auto& l : lengths)
    if (l > max_bits) {
      l = static_cast<std::uint8_t>(max_bits);
      overflow = true;
    }
  if (!overflow) return;

  std::vector<std::uint64_t> count(max_bits + 2, 0);
  for (auto l : lengths)
    if (l) ++count[l];
  // Integer Kraft sum; alphabet <= 2^16 and max_bits <= 32 keep this well
  // inside 64 bits (worst term 2^16 * 2^31 = 2^47).
  std::uint64_t kraft = 0;
  for (unsigned l = 1; l <= max_bits; ++l)
    kraft += count[l] << (max_bits - l);
  const std::uint64_t one = std::uint64_t{1} << max_bits;

  unsigned l = max_bits - 1;
  while (kraft > one) {
    while (l > 0 && count[l] == 0) --l;
    if (l == 0)
      throw std::runtime_error("huffman: cannot satisfy Kraft inequality");
    --count[l];
    ++count[l + 1];
    kraft -= std::uint64_t{1} << (max_bits - l - 1);
    // The moved symbol now sits at l+1; if that is still below max_bits it
    // is the new longest candidate.
    if (l + 1 < max_bits) ++l;
  }

  // Reassign: bucket symbols by their clamped original length (symbol order
  // within a bucket), then hand out the adjusted lengths shortest-first.
  std::vector<std::vector<std::uint32_t>> by_len(max_bits + 1);
  for (std::size_t s = 0; s < lengths.size(); ++s)
    if (lengths[s]) by_len[lengths[s]].push_back(static_cast<std::uint32_t>(s));
  unsigned next = 1;
  for (unsigned orig = 1; orig <= max_bits; ++orig) {
    for (const std::uint32_t s : by_len[orig]) {
      while (count[next] == 0) ++next;
      lengths[s] = static_cast<std::uint8_t>(next);
      --count[next];
    }
  }
}

}  // namespace

std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs, unsigned max_bits) {
  if (max_bits == 0 || max_bits > kMaxHuffmanBits)
    throw std::invalid_argument("huffman: bad max_bits");
  std::vector<std::uint8_t> lengths(freqs.size(), 0);
  std::vector<Node> nodes;
  nodes.reserve(freqs.size() * 2);
  std::priority_queue<std::int32_t, std::vector<std::int32_t>, NodeCmp> heap{
      NodeCmp{&nodes}};
  std::uint32_t order = 0;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] == 0) continue;
    nodes.push_back(Node{freqs[s], -1, -1, static_cast<std::uint32_t>(s),
                         order++});
    heap.push(static_cast<std::int32_t>(nodes.size() - 1));
  }
  if (nodes.empty()) return lengths;
  if (nodes.size() == 1) {
    lengths[nodes[0].symbol] = 1;  // single-symbol stream: 1-bit code
    return lengths;
  }
  while (heap.size() > 1) {
    const std::int32_t a = heap.top();
    heap.pop();
    const std::int32_t b = heap.top();
    heap.pop();
    nodes.push_back(Node{nodes[static_cast<std::size_t>(a)].freq +
                             nodes[static_cast<std::size_t>(b)].freq,
                         a, b, 0, order++});
    heap.push(static_cast<std::int32_t>(nodes.size() - 1));
  }
  assign_depths(nodes, heap.top(), lengths);
  limit_lengths(lengths, max_bits);
  return lengths;
}

std::vector<std::uint32_t> huffman_canonical_codes(
    std::span<const std::uint8_t> lengths) {
  std::vector<std::uint32_t> codes(lengths.size(), 0);
  unsigned max_len = 0;
  for (auto l : lengths) max_len = std::max<unsigned>(max_len, l);
  if (max_len == 0) return codes;
  std::vector<std::uint32_t> bl_count(max_len + 1, 0);
  for (auto l : lengths)
    if (l) ++bl_count[l];
  std::vector<std::uint32_t> next_code(max_len + 2, 0);
  std::uint32_t code = 0;
  for (unsigned bits = 1; bits <= max_len; ++bits) {
    code = (code + bl_count[bits - 1]) << 1;
    next_code[bits] = code;
  }
  for (std::size_t s = 0; s < lengths.size(); ++s)
    if (lengths[s]) codes[s] = next_code[lengths[s]]++;
  return codes;
}

std::vector<std::uint64_t> huffman_histogram(
    std::span<const std::uint16_t> symbols, std::size_t alphabet_size) {
  if (alphabet_size == 0 || alphabet_size > (1u << 16))
    throw std::invalid_argument("huffman_histogram: bad alphabet size");
  std::vector<std::uint64_t> freqs(alphabet_size, 0);
  if (alphabet_size <= 2048 && symbols.size() >= 8) {
    // Eight interleaved shadow histograms break the store-to-load
    // dependency runs of skewed symbol streams (the quantization-code
    // distribution concentrates on the centre code): with 4 lanes the
    // dominant symbol still collides every 4 increments, 8 lanes keep the
    // store queue ahead of the loads on the common all-centre runs.  The
    // final merge is a plain unit-stride reduction the compiler
    // vectorizes (2-4 uint64 adds per vector op).
    std::vector<std::uint64_t> sub(alphabet_size * 8, 0);
    std::uint64_t* h = sub.data();
    const std::size_t n8 = symbols.size() & ~std::size_t{7};
    for (std::size_t i = 0; i < n8; i += 8) {
      const std::uint16_t s0 = symbols[i], s1 = symbols[i + 1],
                          s2 = symbols[i + 2], s3 = symbols[i + 3],
                          s4 = symbols[i + 4], s5 = symbols[i + 5],
                          s6 = symbols[i + 6], s7 = symbols[i + 7];
      if ((s0 >= alphabet_size) | (s1 >= alphabet_size) |
          (s2 >= alphabet_size) | (s3 >= alphabet_size) |
          (s4 >= alphabet_size) | (s5 >= alphabet_size) |
          (s6 >= alphabet_size) | (s7 >= alphabet_size))
        throw std::invalid_argument("huffman: symbol out of alphabet");
      ++h[s0];
      ++h[alphabet_size + s1];
      ++h[2 * alphabet_size + s2];
      ++h[3 * alphabet_size + s3];
      ++h[4 * alphabet_size + s4];
      ++h[5 * alphabet_size + s5];
      ++h[6 * alphabet_size + s6];
      ++h[7 * alphabet_size + s7];
    }
    for (std::size_t i = n8; i < symbols.size(); ++i) {
      if (symbols[i] >= alphabet_size)
        throw std::invalid_argument("huffman: symbol out of alphabet");
      ++h[symbols[i]];
    }
    for (std::size_t s = 0; s < alphabet_size; ++s) {
      std::uint64_t t = 0;
      for (unsigned lane = 0; lane < 8; ++lane)
        t += h[lane * alphabet_size + s];
      freqs[s] = t;
    }
  } else {
    for (auto s : symbols) {
      if (s >= alphabet_size)
        throw std::invalid_argument("huffman: symbol out of alphabet");
      ++freqs[s];
    }
  }
  return freqs;
}

std::vector<std::uint64_t> huffman_pack_codes(
    std::span<const std::uint8_t> lengths,
    std::span<const std::uint32_t> codes) {
  std::vector<std::uint64_t> packed(lengths.size());
  for (std::size_t s = 0; s < lengths.size(); ++s)
    packed[s] = (static_cast<std::uint64_t>(codes[s]) << 8) | lengths[s];
  return packed;
}

void huffman_append_payload(std::span<const std::uint16_t> symbols,
                            std::span<const std::uint64_t> packed,
                            std::vector<std::uint8_t>& out,
                            std::uint64_t total_bits_hint) {
  // Canonical codes are pre-masked to their length, so the 64-bit
  // accumulator never mixes stray high bits; lengths <= 32 keep fill < 40
  // between flushes.  The exact payload size is resized up front so the
  // emit loop stores through a raw pointer — no per-byte capacity check.
  static_assert(kMaxHuffmanBits <= BitWriter::kBulkBits);
  std::uint64_t total_bits = total_bits_hint;
  if (total_bits == 0)
    for (auto s : symbols) total_bits += packed[s] & 0xFF;
  const std::size_t base = out.size();
  out.resize(base + static_cast<std::size_t>((total_bits + 7) / 8));
  std::uint8_t* p = out.data() + base;
  std::uint64_t acc = 0;
  unsigned fill = 0;
  // Flush 32 bits at a time: one rarely-taken branch per step (mean code
  // length is a few bits) instead of a per-byte loop whose trip count the
  // branch predictor cannot learn.  fill < 32 before each append and every
  // append adds <= 32 bits, so the accumulator never overflows; the bytes
  // are a pure function of the bit sequence, so the flush grouping below
  // leaves the output byte-identical to the one-symbol-at-a-time path.
  const auto flush32 = [&] {
    fill -= 32;
    const auto w = static_cast<std::uint32_t>(acc >> fill);
    p[0] = static_cast<std::uint8_t>(w >> 24);
    p[1] = static_cast<std::uint8_t>(w >> 16);
    p[2] = static_cast<std::uint8_t>(w >> 8);
    p[3] = static_cast<std::uint8_t>(w);
    p += 4;
  };
  // Symbols go two at a time: both table lookups issue before either code
  // lands in the accumulator, and the common short-code pair costs one
  // combined shift + one flush check instead of two of each.
  const std::size_t n2 = symbols.size() & ~std::size_t{1};
  std::size_t i = 0;
  for (; i < n2; i += 2) {
    const std::uint64_t e0 = packed[symbols[i]];
    const std::uint64_t e1 = packed[symbols[i + 1]];
    const unsigned l0 = static_cast<unsigned>(e0 & 0xFF);
    const unsigned l1 = static_cast<unsigned>(e1 & 0xFF);
    if (const unsigned len = l0 + l1; len <= 32) {
      acc = (acc << len) | ((e0 >> 8) << l1) | (e1 >> 8);
      fill += len;
      if (fill >= 32) flush32();
    } else {  // rare: two long codes back to back
      acc = (acc << l0) | (e0 >> 8);
      fill += l0;
      if (fill >= 32) flush32();
      acc = (acc << l1) | (e1 >> 8);
      fill += l1;
      if (fill >= 32) flush32();
    }
  }
  if (i < symbols.size()) {
    const std::uint64_t e = packed[symbols[i]];
    const unsigned len = static_cast<unsigned>(e & 0xFF);
    acc = (acc << len) | (e >> 8);
    fill += len;
    if (fill >= 32) flush32();
  }
  while (fill >= 8) {
    fill -= 8;
    *p++ = static_cast<std::uint8_t>(acc >> fill);
  }
  if (fill > 0) {
    const std::uint64_t mask = (std::uint64_t{1} << fill) - 1;
    *p++ = static_cast<std::uint8_t>((acc & mask) << (8 - fill));
  }
}

void huffman_write_lengths(std::span<const std::uint8_t> lengths,
                           ByteWriter& out) {
  out.put_varint(lengths.size());
  std::size_t present = 0;
  for (auto l : lengths)
    if (l) ++present;
  out.put_varint(present);
  // Delta-coded symbol ids keep the table small when codes cluster.
  std::uint64_t prev = 0;
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (!lengths[s]) continue;
    out.put_varint(s - prev);
    prev = s;
    out.put<std::uint8_t>(lengths[s]);
  }
}

std::vector<std::uint8_t> huffman_read_lengths(ByteReader& in) {
  const auto alphabet_size = static_cast<std::size_t>(in.get_varint());
  if (alphabet_size == 0 || alphabet_size > (1u << 16))
    throw std::runtime_error("huffman: bad alphabet size");
  const auto present = static_cast<std::size_t>(in.get_varint());
  std::vector<std::uint8_t> lengths(alphabet_size, 0);
  std::uint64_t sym = 0;
  for (std::size_t i = 0; i < present; ++i) {
    sym += in.get_varint();
    if (sym >= alphabet_size)
      throw std::runtime_error("huffman: symbol out of range");
    lengths[sym] = in.get<std::uint8_t>();
  }
  return lengths;
}

void huffman_encode(std::span<const std::uint16_t> symbols,
                    std::size_t alphabet_size, ByteWriter& out) {
  if (alphabet_size == 0 || alphabet_size > (1u << 16))
    throw std::invalid_argument("huffman_encode: bad alphabet size");
  const auto freqs = huffman_histogram(symbols, alphabet_size);
  const auto lengths = huffman_code_lengths(freqs);
  const auto codes = huffman_canonical_codes(lengths);

  huffman_write_lengths(lengths, out);
  out.put_varint(symbols.size());

  // The histogram gives the payload size up front (sum freq * length), so
  // the bits go straight into `out` — no staging buffer, no copy.
  const auto packed = huffman_pack_codes(lengths, codes);
  std::uint64_t total_bits = 0;
  for (std::size_t s = 0; s < alphabet_size; ++s)
    total_bits += freqs[s] * lengths[s];
  out.put_varint(static_cast<std::size_t>((total_bits + 7) / 8));
  huffman_append_payload(symbols, packed, out.vector(), total_bits);
}

HuffmanDecoder::HuffmanDecoder(std::span<const std::uint8_t> lengths) {
  for (auto l : lengths) max_len_ = std::max<unsigned>(max_len_, l);
  if (max_len_ > kMaxHuffmanBits)
    throw std::runtime_error("HuffmanDecoder: code length too large");
  for (auto l : lengths)
    if (l) min_len_ = min_len_ ? std::min<unsigned>(min_len_, l) : l;
  count_.assign(max_len_ + 1, 0);
  for (auto l : lengths)
    if (l) ++count_[l];
  // Reject over-subscribed tables (integer Kraft sum > 1): canonical code
  // assignment would overflow the code width, and the lookup-table build
  // would index past the table.  Corrupted streams hit this path.
  if (max_len_ > 0) {
    std::uint64_t kraft = 0;
    for (unsigned l = 1; l <= max_len_; ++l)
      kraft += static_cast<std::uint64_t>(count_[l]) << (max_len_ - l);
    if (kraft > std::uint64_t{1} << max_len_)
      throw std::runtime_error("HuffmanDecoder: invalid code lengths");
  }
  first_code_.assign(max_len_ + 2, 0);
  offset_.assign(max_len_ + 2, 0);
  std::uint32_t code = 0, idx = 0;
  for (unsigned bits = 1; bits <= max_len_; ++bits) {
    code = (code + (bits > 1 ? count_[bits - 1] : 0)) << 1;
    first_code_[bits] = code;
    offset_[bits] = idx;
    idx += count_[bits];
  }
  sorted_.resize(idx);
  std::vector<std::uint32_t> fill(max_len_ + 1, 0);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    const unsigned l = lengths[s];
    if (!l) continue;
    sorted_[offset_[l] + fill[l]] = static_cast<std::uint16_t>(s);
    ++fill[l];
  }

  // Primary lookup table, pass 1 (single symbol): every kTableBits-wide
  // window whose prefix is a code of length l <= kTableBits maps to an
  // entry carrying (symbol, l); windows whose prefix belongs to a longer
  // code keep entry 0 and take the scan path.
  static_assert(kTableBits <= 15, "len/total fields are 4 bits wide");
  static_assert(kMaxTableSymbols <= 3, "three 16-bit symbol slots");
  if (max_len_ == 0) return;
  table_bits_ = std::min(max_len_, kTableBits);
  table_.assign(std::size_t{1} << table_bits_, 0);
  const auto codes = huffman_canonical_codes(lengths);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    const unsigned l = lengths[s];
    if (!l || l > table_bits_) continue;
    const std::size_t base = static_cast<std::size_t>(codes[s])
                             << (table_bits_ - l);
    const std::size_t span = std::size_t{1} << (table_bits_ - l);
    const std::uint64_t entry = (static_cast<std::uint64_t>(s) << 16) |
                                (std::uint64_t{l} << 4) | l;
    for (std::size_t w = 0; w < span; ++w) table_[base + w] = entry;
  }

  // Pass 2 (multi-symbol): chain table lookups inside each window.  After
  // consuming `pos` bits, the remaining window bits are re-looked-up with
  // the unknown low bits zero-filled; the chained entry is only trusted
  // when its first code fits entirely inside the known `table_bits_ - pos`
  // bits, so every packed symbol is determined by window bits alone.  The
  // in-place update is safe because extended entries preserve the len0
  // (bits 0..3) and sym0 (bits 16..31) fields pass 2 reads.
  const std::size_t mask = (std::size_t{1} << table_bits_) - 1;
  for (std::size_t w = 0; w < table_.size(); ++w) {
    const std::uint64_t e0 = table_[w];
    unsigned pos = static_cast<unsigned>(e0 & 0xFu);
    if (pos == 0) continue;  // fallback window
    std::uint64_t entry = e0 & ~std::uint64_t{0xFF0};  // keep len0 + sym0
    unsigned cnt = 1;
    while (cnt < kMaxTableSymbols && pos < table_bits_) {
      const std::uint64_t next = table_[(w << pos) & mask];
      const unsigned l = static_cast<unsigned>(next & 0xFu);
      if (l == 0 || l > table_bits_ - pos) break;
      entry |= ((next >> 16) & 0xFFFFu) << (16 * (cnt + 1));
      pos += l;
      ++cnt;
    }
    table_[w] = entry | (std::uint64_t{pos} << 4) |
                (std::uint64_t{cnt - 1} << 8);
  }
}

std::uint16_t HuffmanDecoder::decode(BitReader& br) const {
  if (max_len_ == 0)
    throw std::runtime_error("HuffmanDecoder: empty code table");
  const std::uint64_t e = table_[br.peek(table_bits_)];
  if (const unsigned len = static_cast<unsigned>(e & 0xFu); len != 0) {
    br.skip(len);
    return static_cast<std::uint16_t>(e >> 16);
  }
  return decode_bitwise(br);
}

std::uint16_t HuffmanDecoder::decode_bitwise(BitReader& br) const {
  if (max_len_ == 0)
    throw std::runtime_error("HuffmanDecoder: empty code table");
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= max_len_; ++len) {
    code = (code << 1) | static_cast<std::uint32_t>(br.get(1));
    if (count_[len] && code - first_code_[len] < count_[len])
      return sorted_[offset_[len] + (code - first_code_[len])];
  }
  throw std::runtime_error("HuffmanDecoder: invalid codeword");
}

void huffman_decode_payload_into(const HuffmanDecoder& dec,
                                 std::span<const std::uint8_t> payload,
                                 std::size_t n_symbols,
                                 std::vector<std::uint16_t>& out,
                                 std::size_t limit) {
  if (n_symbols == 0) {
    out.clear();
    return;
  }
  // Sanity: every symbol costs at least min_length() payload bits, so a
  // declared count beyond payload_bits / min_length is corruption — reject
  // before allocating the output.  (payload size is bounded by the
  // enclosing stream, so the multiplication cannot overflow.)
  const unsigned min_len = dec.min_length();
  if (min_len == 0)
    throw std::runtime_error("huffman_decode: empty code table");
  if (n_symbols > payload.size() * 8 / min_len)
    throw std::runtime_error("huffman_decode: symbol count exceeds payload");
  // The declared count is validated in full; only the decode stops early.
  n_symbols = std::min(n_symbols, limit);

  // resize without a preceding clear(): the decode loop writes every
  // element, so a reused vector only pays value-initialization for the
  // grown tail — not a full per-call memset.
  out.resize(n_symbols);
  BitReader br(payload);
  // Multi-symbol fast loop: one table entry emits up to kMaxTableSymbols
  // symbols.  The i + kMaxTableSymbols <= n_symbols guard means at least
  // that many real symbols remain, so the prefix-determined chain in the
  // entry can never cross into the stream's zero padding; all three slots
  // are stored unconditionally (overwritten by later iterations when
  // cnt < 3) and skip() still bounds-checks the consumed bits, so corrupt
  // payloads throw instead of overreading.
  const std::uint64_t* table = dec.table();
  const unsigned table_bits = dec.table_bits();
  std::size_t i = 0;

  // Windowed refill: away from the payload tail, hoist BitReader::peek's
  // 8-byte load out of the lookup loop — one load + byteswap serves every
  // chained lookup that fits the window's >= 57 known bits (up to 7 bits
  // of the first byte are already consumed), and br advances via a single
  // skip() per window.  A window never reads past data (byte <= size-8)
  // and never consumes more than the stream holds ((size-8)*8+7+57 ==
  // size*8), so bounds stay intact; long codes (empty entry) drop to the
  // bitwise scan and re-enter the windowed loop after.
  if (payload.size() >= 8) {
    const std::uint8_t* base = payload.data();
    const std::size_t last_start = payload.size() - 8;
    while (i + HuffmanDecoder::kMaxTableSymbols <= n_symbols) {
      const std::uint64_t p0 = br.bit_position();
      const std::size_t byte = static_cast<std::size_t>(p0 >> 3);
      if (byte > last_start) break;
      std::uint64_t w;
      std::memcpy(&w, base + byte, 8);
      w = load_bswap64(w) << (p0 & 7);
      unsigned used = 0;
      while (used + table_bits <= 57 &&
             i + HuffmanDecoder::kMaxTableSymbols <= n_symbols) {
        const std::uint64_t e = table[(w << used) >> (64u - table_bits)];
        const auto adv = static_cast<unsigned>((e >> 4) & 0xFu);
        if (adv == 0) break;  // first code longer than the table window
        out[i] = static_cast<std::uint16_t>(e >> 16);
        out[i + 1] = static_cast<std::uint16_t>(e >> 32);
        out[i + 2] = static_cast<std::uint16_t>(e >> 48);
        i += static_cast<std::size_t>((e >> 8) & 0x3u) + 1;
        used += adv;
      }
      br.skip(used);
      if (used + table_bits <= 57 &&
          i + HuffmanDecoder::kMaxTableSymbols <= n_symbols)
        out[i++] = dec.decode_bitwise(br);
    }
  }
  while (i + HuffmanDecoder::kMaxTableSymbols <= n_symbols) {
    const std::uint64_t e = table[br.peek(table_bits)];
    if ((e & 0xFu) == 0) {  // first code longer than the window
      out[i++] = dec.decode_bitwise(br);
      continue;
    }
    out[i] = static_cast<std::uint16_t>(e >> 16);
    out[i + 1] = static_cast<std::uint16_t>(e >> 32);
    out[i + 2] = static_cast<std::uint16_t>(e >> 48);
    i += static_cast<std::size_t>((e >> 8) & 0x3u) + 1;
    br.skip(static_cast<unsigned>((e >> 4) & 0xFu));
  }
  for (; i < n_symbols; ++i) out[i] = dec.decode(br);
}

std::vector<std::uint16_t> huffman_decode_payload(
    const HuffmanDecoder& dec, std::span<const std::uint8_t> payload,
    std::size_t n_symbols) {
  std::vector<std::uint16_t> out;
  huffman_decode_payload_into(dec, payload, n_symbols, out);
  return out;
}

std::vector<std::uint16_t> huffman_decode(ByteReader& in) {
  const auto lengths = huffman_read_lengths(in);
  const auto n_symbols = static_cast<std::size_t>(in.get_varint());
  const auto payload = in.get_bytes(static_cast<std::size_t>(in.get_varint()));
  std::vector<std::uint16_t> out;
  if (n_symbols > 0)
    huffman_decode_payload_into(HuffmanDecoder(lengths), payload, n_symbols,
                                out);
  return out;
}

double shannon_entropy_bits(std::span<const std::uint16_t> symbols,
                            std::size_t alphabet_size) {
  if (symbols.empty()) return 0.0;
  std::vector<std::uint64_t> freqs(alphabet_size, 0);
  for (auto s : symbols) ++freqs.at(s);
  const double n = static_cast<double>(symbols.size());
  double h = 0;
  for (auto f : freqs) {
    if (!f) continue;
    const double p = static_cast<double>(f) / n;
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace sz14
