// Wire protocol for the `sz14 serve` archive daemon: a length-prefixed
// binary request/response framing plus the per-op body encodings, shared
// verbatim by the server, the client library, and the protocol tests.
//
// Frame layout (both directions, all scalars little-endian):
//
//   magic     u32   "SZR1" — protocol identity (an incompatible change to
//                   an op body bumps kProtocolVersion instead, which the
//                   open handshake checks)
//   kind      u8    request: opcode (kOp*); response: status (kStatus*)
//   reserved  u8    must be 0
//   body_len  u32   body bytes that follow
//   body      ...   op-specific payload (ByteWriter primitives)
//
// Body sizes are BOUNDED and validated from the 10 fixed header bytes
// before any body allocation happens: a hostile length prefix is rejected
// with ProtocolError, it never reaches a resize.  Requests are tiny
// (kMaxRequestBody); responses carry decoded field data and get a larger
// budget (kMaxResponseBody) that the client enforces on receive.
//
// Ops:
//   open(client_version)          -> version + field count   (handshake)
//   ls()                          -> FieldStat summary per field (no rows)
//   stat(field)                   -> FieldStat with per-block coverage
//   read_region(field, region)    -> dtype + shape + raw LE values
//   read_field(field)             -> same, whole field
//   stats()                       -> (name, value) counter records
//   scrub(repair)                 -> accepted flag (background scrub task)
//
// Read responses carry a flags byte: a degraded server (one serving a
// damaged archive in OpenMode::kDegraded) sets bit 0 and prepends the
// zero-filled hole block indices, so clients KNOW which reads are exact
// and which have holes — silence would let damaged data impersonate good.
//
// Error responses (kind != kStatusOk) carry a UTF-8 message as the body.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "archive/blocking.hpp"
#include "archive/stat_format.hpp"
#include "common/bytebuffer.hpp"
#include "common/dims.hpp"
#include "common/metrics.hpp"

namespace sz14::serve {

inline constexpr std::uint32_t kProtocolMagic = 0x31'52'5A'53u;  // "SZR1"
/// 2: the stats body became self-describing (name, value) records.
inline constexpr std::uint16_t kProtocolVersion = 2;
inline constexpr std::size_t kFrameHeaderSize = 10;

/// Requests are metadata-only (names, region coordinates); anything bigger
/// is malformed or hostile and is refused before allocation.
inline constexpr std::size_t kMaxRequestBody = 64u << 10;  // 64 KiB

/// Responses carry decoded block data; 1 GiB bounds a whole-field read of
/// the largest archives this repo benchmarks while still refusing a
/// nonsense length prefix outright.
inline constexpr std::size_t kMaxResponseBody = 1u << 30;  // 1 GiB

// Request opcodes (frame `kind`, client -> server).
inline constexpr std::uint8_t kOpOpen = 1;
inline constexpr std::uint8_t kOpLs = 2;
inline constexpr std::uint8_t kOpStat = 3;
inline constexpr std::uint8_t kOpReadRegion = 4;
inline constexpr std::uint8_t kOpReadField = 5;
inline constexpr std::uint8_t kOpStats = 6;
inline constexpr std::uint8_t kOpScrub = 7;

// Response status (frame `kind`, server -> client).
inline constexpr std::uint8_t kStatusOk = 0;
inline constexpr std::uint8_t kStatusBadRequest = 1;
inline constexpr std::uint8_t kStatusNotFound = 2;
inline constexpr std::uint8_t kStatusTooLarge = 3;
inline constexpr std::uint8_t kStatusServerError = 4;

[[nodiscard]] const char* status_name(std::uint8_t status) noexcept;

/// Malformed framing or body (bad magic, oversized length, truncated
/// body fields, unknown opcode).  The server answers kStatusBadRequest
/// and closes; the client surfaces it to the caller.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One decoded frame.
struct Frame {
  std::uint8_t kind = 0;
  std::vector<std::uint8_t> body;
};

/// Serialize a frame (header + body) ready to write to a connection.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    std::uint8_t kind, std::span<const std::uint8_t> body);

/// Incremental frame decoder for a byte stream: feed() consumes arbitrary
/// chunk boundaries, next() pops completed frames.  Header validation
/// (magic, reserved byte, body_len <= max_body) happens as soon as the 10
/// header bytes are in — BEFORE the body buffer is allocated — and a
/// violation throws ProtocolError, after which the stream is unusable
/// (framing is lost; the connection must close).
class FrameParser {
 public:
  explicit FrameParser(std::size_t max_body) : max_body_(max_body) {}

  void feed(std::span<const std::uint8_t> data);
  [[nodiscard]] bool next(Frame& out);

  /// Bytes of an unfinished frame currently buffered (diagnostics).
  [[nodiscard]] std::size_t pending_bytes() const noexcept {
    return header_have_ + body_.size();
  }

 private:
  std::size_t max_body_;
  std::uint8_t header_[kFrameHeaderSize]{};
  std::size_t header_have_ = 0;
  std::uint8_t kind_ = 0;
  std::size_t body_want_ = 0;
  bool in_body_ = false;
  std::vector<std::uint8_t> body_;
  std::vector<Frame> ready_;
};

// --- op bodies -------------------------------------------------------------

struct OpenRequest {
  std::uint16_t version = kProtocolVersion;
};
struct OpenResponse {
  std::uint16_t version = kProtocolVersion;
  std::uint64_t field_count = 0;
};

struct StatRequest {
  std::string field;
};

/// read_region and read_field share one body shape; `region` is absent for
/// a whole-field read.
struct ReadRequest {
  std::string field;
  std::optional<archive::Region> region;
};

/// Response to both read ops: shape + dtype + raw little-endian values.
/// `degraded` marks a read served with zero-filled holes (unrecoverable
/// blocks of a damaged archive); `holes` lists those block indices within
/// the field so the client can report exactly what is missing.
struct ReadResponse {
  std::uint8_t dtype = 0;
  bool degraded = false;
  std::vector<std::uint64_t> holes;  ///< zero-filled block indices
  Dims shape;
  std::vector<std::uint8_t> values;  ///< raw LE f32/f64 payload
};

/// Ask the server to scrub its archive in the background.  `accepted` is
/// false when a scrub is already running (one at a time per server).
struct ScrubRequest {
  bool repair = false;
};
struct ScrubResponse {
  bool accepted = false;
};

// Encoders produce the frame BODY; pair them with encode_frame(kOp*/
// kStatus*, body).  Decoders throw ProtocolError on malformed input.
void encode_open_request(const OpenRequest& r, ByteWriter& out);
[[nodiscard]] OpenRequest decode_open_request(ByteReader& in);
void encode_open_response(const OpenResponse& r, ByteWriter& out);
[[nodiscard]] OpenResponse decode_open_response(ByteReader& in);

void encode_stat_request(const StatRequest& r, ByteWriter& out);
[[nodiscard]] StatRequest decode_stat_request(ByteReader& in);

void encode_read_request(const ReadRequest& r, ByteWriter& out);
[[nodiscard]] ReadRequest decode_read_request(ByteReader& in);
void encode_read_response(const ReadResponse& r, ByteWriter& out);
[[nodiscard]] ReadResponse decode_read_response(ByteReader& in);

void encode_scrub_request(const ScrubRequest& r, ByteWriter& out);
[[nodiscard]] ScrubRequest decode_scrub_request(ByteReader& in);
void encode_scrub_response(const ScrubResponse& r, ByteWriter& out);
[[nodiscard]] ScrubResponse decode_scrub_response(ByteReader& in);

/// stats response: varint record count, then (string name, varint value)
/// per record — Server::stats() as it is, no fixed field list.
void encode_stats_response(const Metrics& records, ByteWriter& out);
[[nodiscard]] Metrics decode_stats_response(ByteReader& in);

/// ls response: FieldStat summaries (block rows omitted).
void encode_ls_response(const std::vector<archive::FieldStat>& fields,
                        ByteWriter& out);
[[nodiscard]] std::vector<archive::FieldStat> decode_ls_response(
    ByteReader& in);

}  // namespace sz14::serve
