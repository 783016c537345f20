// Wire-level suite for the serving protocol: frame encode/parse must
// round-trip under arbitrary fragmentation, and every hostile input —
// bad magic, oversized length prefixes, truncated bodies, payloads that
// lie about their own size — must surface as ProtocolError BEFORE any
// proportional allocation happens, never as a crash or a silent accept.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "archive/stat_format.hpp"
#include "core/format.hpp"

namespace sz14::serve {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int b : v) out.push_back(static_cast<std::uint8_t>(b));
  return out;
}

TEST(ServeFrame, RoundTripWholeAndFragmented) {
  const auto body = bytes({1, 2, 3, 4, 5, 6, 7});
  const auto wire = encode_frame(kOpStat, body);
  ASSERT_EQ(wire.size(), kFrameHeaderSize + body.size());

  // Whole-buffer feed.
  FrameParser whole(kMaxRequestBody);
  whole.feed(wire);
  Frame f;
  ASSERT_TRUE(whole.next(f));
  EXPECT_EQ(f.kind, kOpStat);
  EXPECT_EQ(f.body, body);
  EXPECT_FALSE(whole.next(f));

  // Byte-at-a-time feed must produce the identical frame.
  FrameParser dribble(kMaxRequestBody);
  for (const std::uint8_t b : wire) dribble.feed({&b, 1});
  ASSERT_TRUE(dribble.next(f));
  EXPECT_EQ(f.kind, kOpStat);
  EXPECT_EQ(f.body, body);
}

TEST(ServeFrame, BackToBackFramesInOneFeed) {
  auto wire = encode_frame(kOpLs, {});
  const auto second = encode_frame(kOpStats, bytes({9, 9}));
  wire.insert(wire.end(), second.begin(), second.end());
  FrameParser p(kMaxRequestBody);
  p.feed(wire);
  Frame f;
  ASSERT_TRUE(p.next(f));
  EXPECT_EQ(f.kind, kOpLs);
  EXPECT_TRUE(f.body.empty());
  ASSERT_TRUE(p.next(f));
  EXPECT_EQ(f.kind, kOpStats);
  EXPECT_EQ(f.body.size(), 2u);
  EXPECT_FALSE(p.next(f));
}

TEST(ServeFrame, BadMagicThrows) {
  auto wire = encode_frame(kOpLs, {});
  wire[0] ^= 0xFF;
  FrameParser p(kMaxRequestBody);
  EXPECT_THROW(p.feed(wire), ProtocolError);
}

TEST(ServeFrame, GarbageStreamThrows) {
  const std::string junk = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  FrameParser p(kMaxRequestBody);
  EXPECT_THROW(
      p.feed({reinterpret_cast<const std::uint8_t*>(junk.data()),
              junk.size()}),
      ProtocolError);
}

TEST(ServeFrame, OversizedLengthRejectedBeforeBody) {
  // A hostile header claiming a 4 GiB body must be rejected from the 10
  // header bytes alone — no body bytes needed, no allocation made.
  std::vector<std::uint8_t> header(kFrameHeaderSize, 0);
  const std::uint32_t magic = kProtocolMagic;
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(header.data(), &magic, 4);
  header[4] = kOpReadRegion;
  std::memcpy(header.data() + 6, &huge, 4);
  FrameParser p(kMaxRequestBody);
  EXPECT_THROW(p.feed(header), ProtocolError);
}

TEST(ServeFrame, NonzeroReservedByteThrows) {
  auto wire = encode_frame(kOpLs, {});
  wire[5] = 1;
  FrameParser p(kMaxRequestBody);
  EXPECT_THROW(p.feed(wire), ProtocolError);
}

TEST(ServeFrame, TruncatedFrameStaysPending) {
  const auto wire = encode_frame(kOpStat, bytes({1, 2, 3, 4}));
  FrameParser p(kMaxRequestBody);
  p.feed({wire.data(), wire.size() - 2});
  Frame f;
  EXPECT_FALSE(p.next(f));  // incomplete: nothing surfaces...
  p.feed({wire.data() + wire.size() - 2, 2});
  EXPECT_TRUE(p.next(f));  // ...until the tail arrives
  EXPECT_EQ(f.body.size(), 4u);
}

TEST(ServeProtocol, OpenRoundTrip) {
  ByteWriter w;
  encode_open_request(OpenRequest{kProtocolVersion}, w);
  ByteReader in(w.view());
  EXPECT_EQ(decode_open_request(in).version, kProtocolVersion);

  ByteWriter wr;
  encode_open_response(OpenResponse{kProtocolVersion, 42}, wr);
  ByteReader rin(wr.view());
  const OpenResponse resp = decode_open_response(rin);
  EXPECT_EQ(resp.version, kProtocolVersion);
  EXPECT_EQ(resp.field_count, 42u);
}

TEST(ServeProtocol, ReadRequestRoundTrip) {
  archive::Region r;
  r.rank = 3;
  r.origin[0] = 4; r.origin[1] = 0; r.origin[2] = 9;
  r.extent[0] = 2; r.extent[1] = 7; r.extent[2] = 1;
  ByteWriter w;
  encode_read_request(ReadRequest{"temperature", r}, w);
  ByteReader in(w.view());
  const ReadRequest back = decode_read_request(in);
  EXPECT_EQ(back.field, "temperature");
  ASSERT_TRUE(back.region.has_value());
  EXPECT_EQ(back.region->rank, 3u);
  for (std::size_t a = 0; a < 3; ++a) {
    EXPECT_EQ(back.region->origin[a], r.origin[a]);
    EXPECT_EQ(back.region->extent[a], r.extent[a]);
  }

  ByteWriter w2;
  encode_read_request(ReadRequest{"x", std::nullopt}, w2);
  ByteReader in2(w2.view());
  EXPECT_FALSE(decode_read_request(in2).region.has_value());
}

TEST(ServeProtocol, ReadRequestHostileRegionRankThrows) {
  ByteWriter w;
  w.put_string("f");
  w.put(static_cast<std::uint8_t>(1));   // has region
  w.put(static_cast<std::uint8_t>(200)); // rank 200 >> kMaxDims
  ByteReader in(w.view());
  EXPECT_THROW(decode_read_request(in), ProtocolError);
}

TEST(ServeProtocol, ReadResponsePayloadMismatchThrows) {
  ReadResponse resp;
  resp.dtype = kDtypeF32;
  resp.shape = Dims{2, 2};
  resp.values.assign(4 * sizeof(float), 0);
  ByteWriter w;
  encode_read_response(resp, w);
  {
    ByteReader in(w.view());
    EXPECT_EQ(decode_read_response(in).shape.count(), 4u);
  }
  // Claiming a 2x2 f32 shape with a 3-value payload is a lie: reject.
  resp.values.resize(3 * sizeof(float));
  ByteWriter w2;
  encode_read_response(resp, w2);
  ByteReader in2(w2.view());
  EXPECT_THROW(decode_read_response(in2), ProtocolError);
}

TEST(ServeProtocol, ReadResponseWrappingShapeThrows) {
  // 2^62 f32 values are 2^64 bytes: shape.count() * 4 wraps to 0, which an
  // empty payload must not be taken to match.
  ReadResponse resp;
  resp.dtype = kDtypeF32;
  resp.shape = Dims{std::size_t{1} << 62};
  ByteWriter w;
  encode_read_response(resp, w);
  ByteReader in(w.view());
  EXPECT_THROW(decode_read_response(in), ProtocolError);
}

TEST(ServeProtocol, ReadResponseUnknownDtypeThrows) {
  ReadResponse resp;
  resp.dtype = 7;
  resp.shape = Dims{1};
  resp.values.assign(4, 0);
  ByteWriter w;
  encode_read_response(resp, w);
  ByteReader in(w.view());
  EXPECT_THROW(decode_read_response(in), ProtocolError);
}

TEST(ServeProtocol, ReadResponseTruncatedValuesThrow) {
  ReadResponse resp;
  resp.dtype = kDtypeF32;
  resp.shape = Dims{8};
  resp.values.assign(8 * sizeof(float), 1);
  ByteWriter w;
  encode_read_response(resp, w);
  // Chop the tail: the varint length now exceeds what remains.
  const auto full = w.view();
  const std::vector<std::uint8_t> cut(full.begin(), full.end() - 5);
  ByteReader in(cut);
  EXPECT_THROW(decode_read_response(in), ProtocolError);
}

TEST(ServeProtocol, StatsRecordsRoundTrip) {
  const Metrics sent = {{"sessions_accepted", 3},
                        {"requests_ok", 1000},
                        {"bytes_out", (1ull << 40) + 7},  // multi-byte varint
                        {"coalesced_reads", 0}};
  ByteWriter w;
  encode_stats_response(sent, w);
  ByteReader in(w.view());
  const Metrics back = decode_stats_response(in);
  EXPECT_TRUE(in.exhausted());
  ASSERT_EQ(back.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(back[i].name, sent[i].name);
    EXPECT_EQ(back[i].value, sent[i].value);
  }
  EXPECT_EQ(metric(back, "bytes_out"), (1ull << 40) + 7);
  EXPECT_THROW((void)metric(back, "no_such_counter"), std::out_of_range);
}

TEST(ServeProtocol, FieldStatAndLsRoundTrip) {
  archive::FieldStat f;
  f.name = "vorticity";
  f.dtype = kDtypeF64;
  f.codec = 1;
  f.eb_abs = 1e-4;
  f.dims = Dims{16, 8};
  f.block_dims = Dims{8, 8};
  f.block_count = 2;
  f.payload_bytes = 321;
  f.raw_bytes = 1024;
  f.min = -2.5;
  f.max = 7.75;
  f.blocks = {{300, -2.5, 1.0}, {21, 0.0, 7.75}};
  ByteWriter w;
  encode_ls_response({f, f}, w);
  ByteReader in(w.view());
  const auto back = decode_ls_response(in);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].name, "vorticity");
  EXPECT_EQ(back[0].dtype, kDtypeF64);
  EXPECT_EQ(back[0].dims.to_string(), f.dims.to_string());
  ASSERT_EQ(back[0].blocks.size(), 2u);
  EXPECT_EQ(back[0].blocks[1].bytes, 21u);
  EXPECT_DOUBLE_EQ(back[0].blocks[1].max, 7.75);
  EXPECT_DOUBLE_EQ(back[0].compression_factor(), 1024.0 / 321.0);
}

TEST(ServeProtocol, HostileLsCountRejected) {
  ByteWriter w;
  w.put_varint(0xFFFFFFFFu);  // claims 4G field stats in a tiny frame
  ByteReader in(w.view());
  EXPECT_THROW(decode_ls_response(in), ProtocolError);
}

TEST(ServeProtocol, HostileStatsCountRejected) {
  ByteWriter w;
  w.put_varint(0xFFFFFFFFu);  // claims 4G records in a tiny frame
  w.put_string("requests_ok");
  w.put_varint(1);
  ByteReader in(w.view());
  EXPECT_THROW(decode_stats_response(in), ProtocolError);
}

TEST(ServeProtocol, HostileStatsNameLengthRejected) {
  ByteWriter w;
  w.put_varint(1);
  w.put_varint(1000);  // name length past the end of the frame
  w.put_bytes(std::vector<std::uint8_t>(8, 'x'));
  ByteReader in(w.view());
  EXPECT_THROW(decode_stats_response(in), ProtocolError);
}

TEST(ServeProtocol, TruncatedStatsValueRejected) {
  ByteWriter w;
  encode_stats_response({{"bytes_out", (1ull << 40) + 7}}, w);
  // Drop the last byte: the value varint now ends with a continuation bit.
  const auto full = w.view();
  const std::vector<std::uint8_t> cut(full.begin(), full.end() - 1);
  ByteReader in(cut);
  EXPECT_THROW(decode_stats_response(in), ProtocolError);
}

TEST(ServeProtocol, HostileBlockCountRejected) {
  // A field stat whose block row count dwarfs the frame must be refused
  // before the decoder reserves for it.
  archive::FieldStat f;
  f.name = "x";
  f.dims = Dims{4};
  f.block_dims = Dims{4};
  ByteWriter w;
  archive::encode_field_stat(f, w);
  auto buf = std::vector<std::uint8_t>(w.view().begin(), w.view().end());
  // The trailing varint is the (0) block row count; replace it with a
  // 5-byte varint claiming ~4G rows.
  buf.pop_back();
  for (const std::uint8_t b : {0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
    buf.push_back(b);
  ByteReader in(buf);
  EXPECT_THROW(archive::decode_field_stat(in), std::exception);
}

TEST(ServeProtocol, StatusNamesCoverAllCodes) {
  EXPECT_STREQ(status_name(kStatusOk), "ok");
  EXPECT_STREQ(status_name(kStatusBadRequest), "bad request");
  EXPECT_STREQ(status_name(kStatusNotFound), "not found");
  EXPECT_STREQ(status_name(kStatusTooLarge), "too large");
  EXPECT_STREQ(status_name(kStatusServerError), "server error");
  EXPECT_STREQ(status_name(200), "unknown status");
}

}  // namespace
}  // namespace sz14::serve
