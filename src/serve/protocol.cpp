#include "serve/protocol.hpp"

#include <cstring>

#include "core/format.hpp"

namespace sz14::serve {
namespace {

/// ByteReader failures inside a frame body become ProtocolError so the
/// server can answer kStatusBadRequest instead of treating them as an
/// internal fault.
template <typename Fn>
auto guarded(const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& e) {
    throw ProtocolError(std::string(what) + ": " + e.what());
  }
}

void encode_region(const archive::Region& r, ByteWriter& out) {
  out.put(static_cast<std::uint8_t>(r.rank));
  for (std::size_t a = 0; a < r.rank; ++a) {
    out.put_varint(r.origin[a]);
    out.put_varint(r.extent[a]);
  }
}

archive::Region decode_region(ByteReader& in) {
  archive::Region r;
  r.rank = in.get<std::uint8_t>();
  if (r.rank == 0 || r.rank > kMaxDims)
    throw ProtocolError("read: region rank " + std::to_string(r.rank) +
                        " out of range");
  for (std::size_t a = 0; a < r.rank; ++a) {
    r.origin[a] = in.get_varint();
    r.extent[a] = in.get_varint();
  }
  return r;
}

}  // namespace

const char* status_name(std::uint8_t status) noexcept {
  switch (status) {
    case kStatusOk: return "ok";
    case kStatusBadRequest: return "bad request";
    case kStatusNotFound: return "not found";
    case kStatusTooLarge: return "too large";
    case kStatusServerError: return "server error";
    default: return "unknown status";
  }
}

std::vector<std::uint8_t> encode_frame(std::uint8_t kind,
                                       std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> out(kFrameHeaderSize + body.size());
  const std::uint32_t magic = kProtocolMagic;
  const std::uint32_t len = static_cast<std::uint32_t>(body.size());
  std::memcpy(out.data(), &magic, 4);
  out[4] = kind;
  out[5] = 0;  // reserved
  std::memcpy(out.data() + 6, &len, 4);
  if (!body.empty()) std::memcpy(out.data() + 10, body.data(), body.size());
  return out;
}

void FrameParser::feed(std::span<const std::uint8_t> data) {
  std::size_t pos = 0;
  while (pos < data.size()) {
    if (!in_body_) {
      const std::size_t take =
          std::min(kFrameHeaderSize - header_have_, data.size() - pos);
      std::memcpy(header_ + header_have_, data.data() + pos, take);
      header_have_ += take;
      pos += take;
      if (header_have_ < kFrameHeaderSize) return;

      // Full header: validate BEFORE touching the body buffer.
      std::uint32_t magic, len;
      std::memcpy(&magic, header_, 4);
      std::memcpy(&len, header_ + 6, 4);
      if (magic != kProtocolMagic)
        throw ProtocolError("frame: bad magic (not an SZR1 stream)");
      if (header_[5] != 0)
        throw ProtocolError("frame: nonzero reserved byte");
      if (len > max_body_)
        throw ProtocolError("frame: body length " + std::to_string(len) +
                            " exceeds limit " + std::to_string(max_body_));
      kind_ = header_[4];
      body_want_ = len;
      body_.clear();
      body_.reserve(body_want_);
      in_body_ = true;
      header_have_ = 0;
    }
    const std::size_t take = std::min(body_want_ - body_.size(),
                                      data.size() - pos);
    body_.insert(body_.end(), data.begin() + pos, data.begin() + pos + take);
    pos += take;
    if (body_.size() == body_want_) {
      ready_.push_back(Frame{kind_, std::move(body_)});
      body_ = {};
      in_body_ = false;
    }
  }
}

bool FrameParser::next(Frame& out) {
  if (ready_.empty()) return false;
  out = std::move(ready_.front());
  ready_.erase(ready_.begin());
  return true;
}

// --- open ------------------------------------------------------------------

void encode_open_request(const OpenRequest& r, ByteWriter& out) {
  out.put(r.version);
}

OpenRequest decode_open_request(ByteReader& in) {
  return guarded("open", [&] {
    OpenRequest r;
    r.version = in.get<std::uint16_t>();
    return r;
  });
}

void encode_open_response(const OpenResponse& r, ByteWriter& out) {
  out.put(r.version);
  out.put_varint(r.field_count);
}

OpenResponse decode_open_response(ByteReader& in) {
  return guarded("open response", [&] {
    OpenResponse r;
    r.version = in.get<std::uint16_t>();
    r.field_count = in.get_varint();
    return r;
  });
}

// --- stat ------------------------------------------------------------------

void encode_stat_request(const StatRequest& r, ByteWriter& out) {
  out.put_string(r.field);
}

StatRequest decode_stat_request(ByteReader& in) {
  return guarded("stat", [&] { return StatRequest{in.get_string()}; });
}

// --- read ------------------------------------------------------------------

void encode_read_request(const ReadRequest& r, ByteWriter& out) {
  out.put_string(r.field);
  out.put(static_cast<std::uint8_t>(r.region.has_value() ? 1 : 0));
  if (r.region) encode_region(*r.region, out);
}

ReadRequest decode_read_request(ByteReader& in) {
  return guarded("read", [&] {
    ReadRequest r;
    r.field = in.get_string();
    const auto has_region = in.get<std::uint8_t>();
    if (has_region > 1)
      throw ProtocolError("read: bad region flag");
    if (has_region) r.region = decode_region(in);
    return r;
  });
}

void encode_read_response(const ReadResponse& r, ByteWriter& out) {
  out.put(r.dtype);
  out.put(static_cast<std::uint8_t>(r.degraded ? 1 : 0));
  if (r.degraded) {
    out.put_varint(r.holes.size());
    for (const std::uint64_t h : r.holes) out.put_varint(h);
  }
  write_dims(r.shape, out);
  out.put_varint(r.values.size());
  out.put_bytes(r.values);
}

ReadResponse decode_read_response(ByteReader& in) {
  return guarded("read response", [&] {
    ReadResponse r;
    r.dtype = in.get<std::uint8_t>();
    if (r.dtype != kDtypeF32 && r.dtype != kDtypeF64)
      throw ProtocolError("read response: unknown dtype " +
                          std::to_string(r.dtype));
    const auto flags = in.get<std::uint8_t>();
    if (flags > 1)
      throw ProtocolError("read response: unknown flags " +
                          std::to_string(flags));
    r.degraded = flags != 0;
    if (r.degraded) {
      const std::uint64_t n_holes = in.get_varint();
      // A hole index is at least one body byte; bound the reserve by what
      // the frame can actually carry.
      if (n_holes > in.remaining())
        throw ProtocolError("read response: hole count exceeds frame");
      r.holes.reserve(static_cast<std::size_t>(n_holes));
      for (std::uint64_t i = 0; i < n_holes; ++i)
        r.holes.push_back(in.get_varint());
    }
    r.shape = read_dims(in);
    const std::uint64_t n = in.get_varint();
    if (n > in.remaining())
      throw ProtocolError("read response: value bytes exceed frame");
    const auto raw = in.get_bytes(n);
    r.values.assign(raw.begin(), raw.end());
    // Division, not shape.count() * elem: the product wraps for a hostile
    // shape.
    const std::size_t elem = r.dtype == kDtypeF64 ? 8 : 4;
    if (r.values.size() % elem != 0 ||
        r.values.size() / elem != r.shape.count())
      throw ProtocolError("read response: payload size does not match shape");
    return r;
  });
}

// --- scrub -----------------------------------------------------------------

void encode_scrub_request(const ScrubRequest& r, ByteWriter& out) {
  out.put(static_cast<std::uint8_t>(r.repair ? 1 : 0));
}

ScrubRequest decode_scrub_request(ByteReader& in) {
  return guarded("scrub", [&] {
    const auto repair = in.get<std::uint8_t>();
    if (repair > 1) throw ProtocolError("scrub: bad repair flag");
    return ScrubRequest{repair != 0};
  });
}

void encode_scrub_response(const ScrubResponse& r, ByteWriter& out) {
  out.put(static_cast<std::uint8_t>(r.accepted ? 1 : 0));
}

ScrubResponse decode_scrub_response(ByteReader& in) {
  return guarded("scrub response", [&] {
    const auto accepted = in.get<std::uint8_t>();
    if (accepted > 1) throw ProtocolError("scrub response: bad accepted flag");
    return ScrubResponse{accepted != 0};
  });
}

// --- stats -----------------------------------------------------------------

void encode_stats_response(const Metrics& records, ByteWriter& out) {
  out.put_varint(records.size());
  for (const auto& [name, value] : records) {
    out.put_string(name);
    out.put_varint(value);
  }
}

Metrics decode_stats_response(ByteReader& in) {
  return guarded("stats response", [&] {
    const std::uint64_t n = in.get_varint();
    // A record is at least two body bytes (name length + value); bound
    // the reserve by what the frame can actually carry.
    if (n > in.remaining() / 2)
      throw ProtocolError("stats response: record count exceeds frame");
    Metrics records;
    records.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
      records.push_back({in.get_string(), in.get_varint()});  // name first
    return records;
  });
}

// --- ls --------------------------------------------------------------------

void encode_ls_response(const std::vector<archive::FieldStat>& fields,
                        ByteWriter& out) {
  out.put_varint(fields.size());
  for (const auto& f : fields) archive::encode_field_stat(f, out);
}

std::vector<archive::FieldStat> decode_ls_response(ByteReader& in) {
  return guarded("ls response", [&] {
    const std::uint64_t n = in.get_varint();
    // A field stat is tens of bytes minimum; bound the reserve by what the
    // frame can actually carry.
    if (n > in.remaining() / 8)
      throw ProtocolError("ls response: field count exceeds frame");
    std::vector<archive::FieldStat> fields;
    fields.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
      fields.push_back(archive::decode_field_stat(in));
    return fields;
  });
}

}  // namespace sz14::serve
