#include "core/chunk_codec.hpp"

#include <stdexcept>

#include "common/timer.hpp"
#include "core/kernels.hpp"

namespace sz14 {

template <typename T>
ChunkWalk encode_chunk(std::span<const T> data, const Dims& dims,
                       const ChunkParams& p, std::span<std::uint16_t> codes,
                       std::span<T> recon) {
  const LayerPredictor predictor(dims, p.layers);
  // Decorrelation dithers the quantization grid by a per-index offset; the
  // rounding guarantee is unaffected, but the error loses its spatial
  // structure (the paper's future-work item for high-CF data).
  const LinearQuantizer quantizer(p.interval_bits, p.eb);
  const UnpredictableCodecT<T> unpred(p.eb);
  BitWriter bw;
  const detail::PassCounters c = detail::pq_compress_walk<T>(
      data, dims, predictor, quantizer, unpred, p.eb, p.decorrelate, codes,
      recon, bw);
  return {std::move(bw).finish(), c.predictable, c.strict_hits};
}

template ChunkWalk encode_chunk(std::span<const float>, const Dims&,
                                const ChunkParams&, std::span<std::uint16_t>,
                                std::span<float>);
template ChunkWalk encode_chunk(std::span<const double>, const Dims&,
                                const ChunkParams&, std::span<std::uint16_t>,
                                std::span<double>);

/// One backend: its section magic (0 = none) and the five table jobs.
struct EntropyTable::Ops {
  std::uint32_t tag;
  void (*build)(EntropyTable&, std::span<const std::uint64_t> hist);
  void (*read)(EntropyTable&, ByteReader&);
  void (*write)(const EntropyTable&, ByteWriter&);
  void (*append)(const EntropyTable&, std::span<const std::uint16_t> codes,
                 std::span<const std::uint64_t> hist, ByteWriter&,
                 std::size_t trailing);
  void (*decode)(const EntropyTable&, std::span<const std::uint8_t> payload,
                 std::size_t n_codes, std::vector<std::uint16_t>& codes,
                 std::size_t limit);
};

const EntropyTable::Ops& EntropyTable::ops_of(EntropyBackend backend) {
  // Rows are indexed by the EntropyBackend value, which is also the SZP3
  // header byte: append rows, never reorder.
  static constexpr Ops kBackends[] = {
      // kHuffman: canonical codes.  A chunk's histogram gives its exact
      // payload size, so the size goes first and the bits straight after.
      {0,
       [](EntropyTable& t, std::span<const std::uint64_t> hist) {
         t.lengths_ = huffman_code_lengths(hist);
         t.packed_ = huffman_pack_codes(t.lengths_,
                                        huffman_canonical_codes(t.lengths_));
       },
       [](EntropyTable& t, ByteReader& in) {
         t.lengths_ = huffman_read_lengths(in);
         t.huffman_.emplace(t.lengths_);
       },
       [](const EntropyTable& t, ByteWriter& out) {
         huffman_write_lengths(t.lengths_, out);
       },
       [](const EntropyTable& t, std::span<const std::uint16_t> codes,
          std::span<const std::uint64_t> hist, ByteWriter& out,
          std::size_t trailing) {
         std::uint64_t bits = 0;
         for (std::size_t s = 0; s < hist.size(); ++s)
           bits += hist[s] * t.lengths_[s];
         const auto bytes = static_cast<std::size_t>((bits + 7) / 8);
         out.vector().reserve(out.size() + varint_size(bytes) + bytes +
                              trailing);
         out.put_varint(bytes);
         huffman_append_payload(codes, t.packed_, out.vector(), bits);
       },
       [](const EntropyTable& t, std::span<const std::uint8_t> payload,
          std::size_t n_codes, std::vector<std::uint16_t>& codes,
          std::size_t limit) {
         huffman_decode_payload_into(*t.huffman_, payload, n_codes, codes,
                                     limit);
       }},
      // kRans: one normalized frequency table.  The payload size is known
      // only once it is coded, so the payload is staged.
      {kRansMagic,
       [](EntropyTable& t, std::span<const std::uint64_t> hist) {
         t.freqs_ = rans_normalize_freqs(hist);
         t.rans_enc_.emplace(t.freqs_);
       },
       [](EntropyTable& t, ByteReader& in) {
         t.freqs_ = rans_read_freqs(in);
         t.rans_dec_.emplace(t.freqs_);
       },
       [](const EntropyTable& t, ByteWriter& out) {
         rans_write_freqs(t.freqs_, out);
       },
       [](const EntropyTable& t, std::span<const std::uint16_t> codes,
          std::span<const std::uint64_t> /*hist*/, ByteWriter& out,
          std::size_t trailing) {
         std::vector<std::uint8_t> payload;
         rans_append_payload(codes, *t.rans_enc_, payload);
         out.vector().reserve(out.size() + varint_size(payload.size()) +
                              payload.size() + trailing);
         out.put_varint(payload.size());
         out.put_bytes(payload);
       },
       [](const EntropyTable& t, std::span<const std::uint8_t> payload,
          std::size_t n_codes, std::vector<std::uint16_t>& codes,
          std::size_t limit) {
         t.rans_dec_->decode_payload_into(payload, n_codes, codes, limit);
       }},
  };
  const auto row = static_cast<std::size_t>(backend);
  if (row >= std::size(kBackends))
    throw std::runtime_error("sz14: unknown entropy backend " +
                             std::to_string(row));
  return kBackends[row];
}

EntropyTable::EntropyTable(EntropyBackend backend,
                           std::span<const std::uint64_t> hist)
    : ops_(&ops_of(backend)) {
  ops_->build(*this, hist);
}

EntropyTable::EntropyTable(EntropyBackend backend, ByteReader& in,
                           bool tagged)
    : ops_(&ops_of(backend)) {
  if (tagged && ops_->tag != 0 && in.get<std::uint32_t>() != ops_->tag)
    throw std::runtime_error("sz14: bad entropy section magic");
  ops_->read(*this, in);
}

void EntropyTable::write(ByteWriter& out, bool tagged) const {
  if (tagged && ops_->tag != 0) out.put<std::uint32_t>(ops_->tag);
  ops_->write(*this, out);
}

void EntropyTable::append_payload(std::span<const std::uint16_t> codes,
                                  std::span<const std::uint64_t> hist,
                                  ByteWriter& out,
                                  std::size_t trailing) const {
  ops_->append(*this, codes, hist, out, trailing);
}

void EntropyTable::decode_payload(std::span<const std::uint8_t> payload,
                                  std::size_t n_codes,
                                  std::vector<std::uint16_t>& codes,
                                  std::size_t limit) const {
  ops_->decode(*this, payload, n_codes, codes, limit);
}

template <typename T>
void decode_chunk(const EntropyTable& table,
                  std::span<const std::uint8_t> payload, std::size_t n_codes,
                  std::span<const std::uint8_t> unpred_bits, const Dims& dims,
                  std::span<const std::size_t> box, const ChunkParams& p,
                  std::span<T> out, std::vector<T>* grow,
                  double* entropy_seconds) {
  std::vector<std::uint16_t> codes;
  std::optional<ThreadCpuTimer> timer;
  if (entropy_seconds) timer.emplace();
  table.decode_payload(payload, n_codes, codes,
                       detail::box_limit(dims, box));
  if (entropy_seconds) *entropy_seconds = timer->seconds();
  if (grow) {
    grow->resize(dims.count());
    out = std::span<T>(*grow);
  }
  const LayerPredictor predictor(dims, p.layers);
  const LinearQuantizer quantizer(p.interval_bits, p.eb);
  const UnpredictableCodecT<T> unpred(p.eb);
  BitReader br(unpred_bits);
  detail::pq_decompress_walk<T>(codes, dims, box, predictor, quantizer,
                                unpred, p.decorrelate, out, br);
}

template void decode_chunk(const EntropyTable&, std::span<const std::uint8_t>,
                           std::size_t, std::span<const std::uint8_t>,
                           const Dims&, std::span<const std::size_t>,
                           const ChunkParams&, std::span<float>,
                           std::vector<float>*, double*);
template void decode_chunk(const EntropyTable&, std::span<const std::uint8_t>,
                           std::size_t, std::span<const std::uint8_t>,
                           const Dims&, std::span<const std::size_t>,
                           const ChunkParams&, std::span<double>,
                           std::vector<double>*, double*);

}  // namespace sz14
