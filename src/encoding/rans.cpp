#include "encoding/rans.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace sz14 {

namespace {

// Encoder renormalization threshold for a symbol of frequency `f`: the
// state must drop below (kRansL >> kRansProbBits) << 8) * f before the
// C(s, x) step, so that the decoder's byte-wise renorm recovers the exact
// emission points in reverse.  With kRansL = 2^23, prob bits 16 and
// f <= 2^16, x_max <= 2^31 and the post-step state stays inside uint32.
constexpr std::uint32_t rans_x_max(std::uint32_t f) {
  return ((kRansL >> kRansProbBits) << 8) * f;
}

}  // namespace

std::vector<std::uint32_t> rans_normalize_freqs(
    std::span<const std::uint64_t> counts) {
  if (counts.size() > (std::size_t{1} << 16))
    throw std::invalid_argument("rans: alphabet too large");
  std::vector<std::uint32_t> freqs(counts.size(), 0);
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  if (total == 0) return freqs;  // empty stream: all-zero table

  // Proportional share, floored but kept >= 1 for every present symbol so
  // each one owns at least one slot of the scaled interval.
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    if (counts[s] == 0) continue;
    const std::uint64_t share = counts[s] * kRansProbScale / total;
    freqs[s] = static_cast<std::uint32_t>(std::max<std::uint64_t>(1, share));
    sum += freqs[s];
  }

  if (sum == kRansProbScale) return freqs;

  // Deterministic correction: adjust the largest buckets first (they carry
  // the most rounding slack and the smallest relative cost), ties broken by
  // symbol id.  A deficit lands entirely on the largest bucket; an excess
  // is peeled off bucket by bucket without ever dropping below 1.
  std::vector<std::uint32_t> order;
  for (std::size_t s = 0; s < freqs.size(); ++s)
    if (freqs[s]) order.push_back(static_cast<std::uint32_t>(s));
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (freqs[a] != freqs[b]) return freqs[a] > freqs[b];
              return a < b;
            });
  if (sum < kRansProbScale) {
    freqs[order.front()] += static_cast<std::uint32_t>(kRansProbScale - sum);
  } else {
    std::uint64_t excess = sum - kRansProbScale;
    for (const std::uint32_t s : order) {
      if (excess == 0) break;
      const std::uint64_t take =
          std::min<std::uint64_t>(excess, freqs[s] - 1);
      freqs[s] -= static_cast<std::uint32_t>(take);
      excess -= take;
    }
    // Present symbols never exceed the scale (alphabet <= 2^16 = scale with
    // every bucket >= 1), so the excess always drains.
    if (excess != 0)
      throw std::logic_error("rans_normalize_freqs: cannot drain excess");
  }
  return freqs;
}

void rans_write_freqs(std::span<const std::uint32_t> freqs, ByteWriter& out) {
  out.put_varint(freqs.size());
  std::size_t present = 0;
  for (auto f : freqs)
    if (f) ++present;
  out.put_varint(present);
  std::uint64_t prev = 0;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    if (!freqs[s]) continue;
    out.put_varint(s - prev);
    prev = s;
    out.put_varint(freqs[s]);
  }
}

std::vector<std::uint32_t> rans_read_freqs(ByteReader& in) {
  const auto alphabet_size = static_cast<std::size_t>(in.get_varint());
  if (alphabet_size == 0 || alphabet_size > (std::size_t{1} << 16))
    throw std::runtime_error("rans: bad alphabet size");
  const auto present = static_cast<std::size_t>(in.get_varint());
  if (present > alphabet_size)
    throw std::runtime_error("rans: more present symbols than alphabet");
  std::vector<std::uint32_t> freqs(alphabet_size, 0);
  std::uint64_t sym = 0;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < present; ++i) {
    sym += in.get_varint();
    if (sym >= alphabet_size)
      throw std::runtime_error("rans: symbol out of range");
    const std::uint64_t f = in.get_varint();
    if (f == 0 || f > kRansProbScale)
      throw std::runtime_error("rans: bad symbol frequency");
    if (freqs[sym] != 0)
      throw std::runtime_error("rans: duplicate symbol");
    freqs[sym] = static_cast<std::uint32_t>(f);
    sum += f;
  }
  if (sum != (present ? kRansProbScale : 0))
    throw std::runtime_error("rans: frequency table does not sum to scale");
  return freqs;
}

RansEncTable::RansEncTable(std::span<const std::uint32_t> freqs)
    : freq_(freqs.begin(), freqs.end()), cum_(freqs.size() + 1, 0) {
  for (std::size_t s = 0; s < freq_.size(); ++s)
    cum_[s + 1] = cum_[s] + freq_[s];
}

void rans_append_payload(std::span<const std::uint16_t> symbols,
                         const RansEncTable& table,
                         std::vector<std::uint8_t>& out) {
  if (symbols.empty()) return;
  // Encoding walks the symbols in REVERSE and pushes renorm bytes into a
  // scratch buffer; reversing that buffer afterwards yields the payload in
  // decode order.  Two states alternate over symbol index parity, so the
  // decoder's forward walk (lane = i & 1) mirrors this loop exactly.
  std::vector<std::uint8_t> rev;
  rev.reserve(symbols.size() / 2 + 16);
  std::uint32_t x[2] = {kRansL, kRansL};
  for (std::size_t i = symbols.size(); i-- > 0;) {
    const std::uint16_t s = symbols[i];
    if (s >= table.alphabet_size() || table.freq(s) == 0)
      throw std::invalid_argument("rans: symbol has no frequency");
    const std::uint32_t f = table.freq(s);
    std::uint32_t& st = x[i & 1];
    const std::uint32_t xmax = rans_x_max(f);
    while (st >= xmax) {
      rev.push_back(static_cast<std::uint8_t>(st));
      st >>= 8;
    }
    st = ((st / f) << kRansProbBits) + (st % f) + table.cum(s);
  }
  // State flushes land, after the reversal, at the front in lane order
  // (state0 then state1, each big-endian).
  for (const int lane : {1, 0})
    for (const int shift : {0, 8, 16, 24})
      rev.push_back(
          static_cast<std::uint8_t>(x[lane] >> static_cast<unsigned>(shift)));
  out.insert(out.end(), rev.rbegin(), rev.rend());
}

RansDecoder::RansDecoder(std::span<const std::uint32_t> freqs)
    : freq_(freqs.begin(), freqs.end()), cum_(freqs.size() + 1, 0) {
  std::uint64_t sum = 0;
  for (auto f : freqs) sum += f;
  if (sum != kRansProbScale && sum != 0)
    throw std::runtime_error("RansDecoder: frequencies must sum to scale");
  for (std::size_t s = 0; s < freq_.size(); ++s)
    cum_[s + 1] = cum_[s] + freq_[s];
  if (sum == 0) return;  // empty table decodes only empty payloads
  // Slot -> symbol over the whole scaled interval: run-filled, one
  // sequential write per slot (sum of runs == kRansProbScale).
  slot2sym_.resize(kRansProbScale);
  for (std::size_t s = 0; s < freq_.size(); ++s) {
    if (!freq_[s]) continue;
    std::fill(slot2sym_.begin() + cum_[s],
              slot2sym_.begin() + cum_[s] + freq_[s],
              static_cast<std::uint16_t>(s));
  }
}

void RansDecoder::decode_payload_into(std::span<const std::uint8_t> payload,
                                      std::size_t n_symbols,
                                      std::vector<std::uint16_t>& out,
                                      std::size_t limit) const {
  if (n_symbols == 0) {
    if (!payload.empty())
      throw std::runtime_error("rans: nonempty payload for empty stream");
    out.clear();
    return;
  }
  // Degenerate one-symbol streams legitimately spend ~0 bits/symbol, so
  // the payload size bounds nothing: reject counts no real machine could
  // hold before attempting the allocation (keeps corrupt-header fuzzing
  // inside clean runtime_error territory).
  if (n_symbols > (std::size_t{1} << 38))
    throw std::runtime_error("rans: implausible symbol count");
  if (slot2sym_.empty())
    throw std::runtime_error("rans: empty frequency table");
  if (payload.size() < 8)
    throw std::runtime_error("rans: payload shorter than state flush");
  const std::uint8_t* p = payload.data();
  const std::uint8_t* const end = p + payload.size();
  std::uint32_t x[2];
  for (const int lane : {0, 1}) {
    x[lane] = (static_cast<std::uint32_t>(p[0]) << 24) |
              (static_cast<std::uint32_t>(p[1]) << 16) |
              (static_cast<std::uint32_t>(p[2]) << 8) |
              static_cast<std::uint32_t>(p[3]);
    p += 4;
    if (x[lane] < kRansL || x[lane] >= (kRansL << 8))
      throw std::runtime_error("rans: initial state out of interval");
  }
  const std::size_t n_decode = std::min(n_symbols, limit);
  out.resize(n_decode);
  constexpr std::uint32_t mask = kRansProbScale - 1;
  for (std::size_t i = 0; i < n_decode; ++i) {
    std::uint32_t& st = x[i & 1];
    const std::uint32_t slot = st & mask;
    const std::uint16_t s = slot2sym_[slot];
    out[i] = s;
    st = freq_[s] * (st >> kRansProbBits) + slot - cum_[s];
    while (st < kRansL) {
      if (p == end)
        throw std::runtime_error("rans: truncated payload");
      st = (st << 8) | *p++;
    }
  }
  // A well-formed stream returns both states to the encoder's initial
  // kRansL and consumes every payload byte; anything else is corruption.
  // A prefix decode stops mid-stream, where neither holds yet.
  if (n_decode < n_symbols) return;
  if (x[0] != kRansL || x[1] != kRansL)
    throw std::runtime_error("rans: final state mismatch");
  if (p != end)
    throw std::runtime_error("rans: trailing payload bytes");
}

}  // namespace sz14
