// End-to-end suite for the serving daemon: a real Server on each transport
// with real Clients, verifying (a) served bytes are bit-identical to direct
// ArchiveReader calls, (b) hostile/broken peers — garbage streams, hostile
// length prefixes, truncated frames, abrupt disconnects — produce clean
// error frames and closed sessions, never a crash or a wedged server, and
// (c) the coalescing guarantee: K concurrent clients cold-reading the same
// region cost exactly one decode per unique block.
//
// The loopback transport runs the identical poll-loop code path as TCP and
// Unix sockets (it is an AF_UNIX socketpair under the hood), so these tests
// double as the TSan workload for the whole subsystem.
#include "serve/client.hpp"
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "archive/archive.hpp"
#include "core/format.hpp"

namespace sz14::serve {
namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "sza_serve_" + std::to_string(::getpid()) +
         "_" + name;
}

std::vector<float> wavy_field(const Dims& dims) {
  std::vector<float> v(dims.count());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<float>(std::sin(0.013 * static_cast<double>(i)) +
                              0.4 * std::cos(0.05 * static_cast<double>(i)));
  return v;
}

std::vector<double> wavy_field64(const Dims& dims) {
  std::vector<double> v(dims.count());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::cos(0.017 * static_cast<double>(i)) * 42.0;
  return v;
}

/// Multi-field, multi-block archive (by default 3x3x2 = 18 blocks per
/// field).
std::string make_archive(const std::string& name,
                         const Dims& dims = Dims{24, 20, 16},
                         const Dims& block = Dims{8, 8, 8}) {
  const std::string path = tmp_path(name);
  archive::ArchiveWriter w(path, {.exec = {.threads = 2}});
  const auto f32 = wavy_field(dims);
  const auto f64 = wavy_field64(dims);
  w.append_field("lossy32", std::span<const float>(f32), dims, block, "sz14",
                 1e-4);
  w.append_field("lossy64", std::span<const double>(f64), dims, block,
                 "sz14", 1e-4);
  w.finish();
  return path;
}

template <typename T>
bool same_bytes(const std::vector<std::uint8_t>& raw,
                const std::vector<T>& want) {
  return raw.size() == want.size() * sizeof(T) &&
         std::memcmp(raw.data(), want.data(), raw.size()) == 0;
}

ServerConfig loopback_config(const std::string& name) {
  ServerConfig cfg;
  cfg.transport = "loopback";
  cfg.endpoint = name;
  cfg.threads = 4;
  cfg.cache_bytes = 64u << 20;
  return cfg;
}

archive::Region region3(std::size_t o0, std::size_t o1, std::size_t o2,
                        std::size_t e0, std::size_t e1, std::size_t e2) {
  archive::Region r;
  r.rank = 3;
  r.origin[0] = o0; r.origin[1] = o1; r.origin[2] = o2;
  r.extent[0] = e0; r.extent[1] = e1; r.extent[2] = e2;
  return r;
}

/// Raw socket to a running server for wire-level abuse.
std::unique_ptr<Connection> raw_dial(const Server& server,
                                     const std::string& transport) {
  return transport_by_name(transport)->connect(server.endpoint(), 5000);
}

/// Blocking read of exactly one response frame off a raw connection.
Frame recv_frame(Connection& conn) {
  FrameParser parser(kMaxResponseBody);
  Frame frame;
  while (!parser.next(frame)) {
    std::uint8_t buf[4096];
    const std::size_t n = conn.recv_some(buf);
    if (n == 0) throw std::runtime_error("peer closed");
    parser.feed({buf, n});
  }
  return frame;
}

TEST(ServeDaemon, LoopbackRoundTripMatchesDirectReader) {
  const std::string path = make_archive("roundtrip.sza");
  Server server(path, loopback_config("rt"));
  server.start();

  archive::ArchiveReader direct(path, {.threads = 2});
  Client client("loopback", server.endpoint());
  EXPECT_EQ(client.field_count(), 2u);

  // ls mirrors the footer.
  const auto ls = client.ls();
  ASSERT_EQ(ls.size(), 2u);
  EXPECT_EQ(ls[0].name, "lossy32");
  EXPECT_EQ(ls[0].block_count, 18u);
  EXPECT_TRUE(ls[0].blocks.empty());  // summaries carry no rows

  // stat carries the per-block rows.
  const auto st = client.stat("lossy32");
  ASSERT_EQ(st.blocks.size(), 18u);
  EXPECT_EQ(st.payload_bytes,
            [&] {
              std::uint64_t total = 0;
              for (const auto& b : st.blocks) total += b.bytes;
              return total;
            }());

  // Whole fields and regions, both dtypes, bit-identical to direct reads.
  EXPECT_EQ(client.read<float>("lossy32"), direct.read<float>("lossy32"));
  EXPECT_EQ(client.read<double>("lossy64"), direct.read<double>("lossy64"));
  const auto r = region3(3, 5, 2, 9, 8, 7);
  EXPECT_EQ(client.read<float>("lossy32", r),
            direct.read<float>("lossy32", r));
  EXPECT_EQ(client.read<double>("lossy64", r),
            direct.read<double>("lossy64", r));
  // No region (the read_field op) equals the whole region (the
  // read_region op).
  for (const char* name : {"lossy32", "lossy64"}) {
    const auto whole = archive::Region::whole(direct.field(name).dims);
    if (direct.field(name).dtype == kDtypeF64)
      EXPECT_EQ(client.read<double>(name), client.read<double>(name, whole));
    else
      EXPECT_EQ(client.read<float>(name), client.read<float>(name, whole));
  }

  // open + ls + stat + 4 reads = 7 (the stats op itself snapshots before
  // its own response is counted).
  const Metrics s = client.stats();
  EXPECT_GE(metric(s, "requests_ok"), 7u);
  EXPECT_EQ(metric(s, "requests_error"), 0u);
  EXPECT_EQ(metric(s, "sessions_accepted"), 1u);
  server.stop();
}

TEST(ServeDaemon, StatsNameEveryCounterExactlyOnce) {
  // The counters the daemon has always reported, each under one name:
  // a counter dropped or renamed in a component fails here.
  const std::multiset<std::string> want = {
      "sessions_accepted", "sessions_rejected",    "sessions_active",
      "requests_ok",       "requests_error",       "bytes_in",
      "bytes_out",         "blocks_decoded",       "coalesced_reads",
      "cache_hits",        "cache_misses",         "cache_evictions",
      "cache_resident_bytes", "cache_capacity_bytes",
      "sessions_idle_reaped", "crc_failures",      "read_repairs",
      "unrecoverable_blocks", "degraded_reads",    "scrubs_started",
      "scrubs_completed",  "scrub_blocks_repaired"};
  ASSERT_EQ(want.size(), 22u);
  const std::string path = make_archive("stats_names.sza");
  Server server(path, loopback_config("stats_names"));
  server.start();
  Client client("loopback", server.endpoint());
  (void)client.read<float>("lossy32");
  for (const Metrics& stats : {client.stats(), server.stats()}) {
    std::multiset<std::string> names;
    for (const Metric& m : stats) names.insert(m.name);
    EXPECT_EQ(names, want);
  }
  const Metrics s = client.stats();
  EXPECT_EQ(metric(s, "blocks_decoded"), 18u);
  EXPECT_EQ(metric(s, "cache_capacity_bytes"), 64u << 20);
  server.stop();
}

TEST(ServeDaemon, ByteCountersMatchTheWire) {
  // bytes_in and bytes_out count exactly what crossed the sockets,
  // whichever thread wrote the reply: three connections, so sessions sit
  // on more than one event loop.
  const std::string path = make_archive("bytes.sza");
  Server server(path, loopback_config("bytes"));
  server.start();
  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < 3; ++c) conns.push_back(raw_dial(server, "loopback"));
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  const auto send = [&](Connection& conn, std::uint8_t op,
                        std::span<const std::uint8_t> body) {
    const auto frame = encode_frame(op, body);
    conn.send_all(frame);
    sent += frame.size();
  };
  const auto r = region3(3, 5, 2, 9, 8, 7);
  for (int i = 0; i < 9; ++i) {
    Connection& conn = *conns[static_cast<std::size_t>(i) % conns.size()];
    const bool whole = i < 3;
    ByteWriter w;
    encode_read_request(
        ReadRequest{i % 2 ? "lossy64" : "lossy32",
                    whole ? std::nullopt : std::optional(r)},
        w);
    send(conn, whole ? kOpReadField : kOpReadRegion, w.view());
    const Frame reply = recv_frame(conn);
    ASSERT_EQ(reply.kind, kStatusOk);
    received += kFrameHeaderSize + reply.body.size();
  }
  // The stats snapshot is taken after its request was read and before its
  // own reply is written.  A reply on another session is counted just
  // after its write returns, so the snapshot may trail the wire by that
  // step: ask again (each answer is itself on the wire) until it settles.
  Metrics s;
  for (int attempt = 0; attempt < 50; ++attempt) {
    send(*conns[0], kOpStats, {});
    const Frame reply = recv_frame(*conns[0]);
    ASSERT_EQ(reply.kind, kStatusOk);
    ByteReader in(reply.body);
    s = decode_stats_response(in);
    if (metric(s, "bytes_out") == received) break;
    received += kFrameHeaderSize + reply.body.size();
  }
  EXPECT_EQ(metric(s, "bytes_out"), received);
  EXPECT_EQ(metric(s, "bytes_in"), sent);
  server.stop();
}

TEST(ServeDaemon, PipelinedRepliesLargerThanTheSocketBufferStayFramed) {
  // Two whole-field reads back to back on one connection, with replies of
  // 2 MiB (f32) and 4 MiB (f64), several times the socket's send buffer.
  // The worker's own send stops part-way, the remainder waits at the
  // outbox front, the other reply queues behind it, and the event loop's
  // POLLOUT flush finishes both while the client drains slowly.
  const std::string path =
      make_archive("pipelined.sza", Dims{128, 64, 64}, Dims{32, 32, 32});
  Server server(path, loopback_config("pipelined"));
  server.start();
  archive::ArchiveReader direct(path, {.threads = 2});

  auto conn = raw_dial(server, "loopback");
  std::vector<std::uint8_t> requests;
  for (const char* name : {"lossy32", "lossy64"}) {
    ByteWriter w;
    encode_read_request(ReadRequest{name, std::nullopt}, w);
    const auto frame = encode_frame(kOpReadField, w.view());
    requests.insert(requests.end(), frame.begin(), frame.end());
  }
  conn->send_all(requests);

  FrameParser parser(kMaxResponseBody);
  std::vector<Frame> frames;
  Frame frame;
  while (frames.size() < 2) {
    std::uint8_t buf[16 << 10];
    const std::size_t n = conn->recv_some(buf, 5000);
    ASSERT_GT(n, 0u) << "server closed the connection";
    parser.feed({buf, n});
    while (parser.next(frame)) frames.push_back(std::move(frame));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(parser.pending_bytes(), 0u);

  // Two pool workers answer, so the replies may arrive in either order.
  const auto want32 = direct.read<float>("lossy32");
  const auto want64 = direct.read<double>("lossy64");
  std::set<std::uint8_t> dtypes;
  for (const Frame& f : frames) {
    ASSERT_EQ(f.kind, kStatusOk);
    ByteReader in(f.body);
    const ReadResponse resp = decode_read_response(in);
    dtypes.insert(resp.dtype);
    EXPECT_TRUE(resp.dtype == kDtypeF64 ? same_bytes(resp.values, want64)
                                        : same_bytes(resp.values, want32));
  }
  EXPECT_EQ(dtypes.size(), 2u);
  server.stop();
  std::remove(path.c_str());
}

TEST(ServeDaemon, ShardedArchiveServesIdenticalBytesInBothFetchModes) {
  // The daemon in front of a manifest + shards, in mmap AND pread mode,
  // must serve byte-identical fields and regions to a direct single-file
  // reader of the same data.
  const std::string single = make_archive("sharded_ref.sza");
  const std::string manifest = tmp_path("sharded.szm");
  {
    const Dims dims{24, 20, 16};
    archive::ArchiveWriter w(manifest,
                             {.exec = {.threads = 2}, .shard_size = 8192});
    const auto f32 = wavy_field(dims);
    const auto f64 = wavy_field64(dims);
    w.append_field("lossy32", std::span<const float>(f32), dims,
                   Dims{8, 8, 8}, "sz14", 1e-4);
    w.append_field("lossy64", std::span<const double>(f64), dims,
                   Dims{8, 8, 8}, "sz14", 1e-4);
    w.finish();
    ASSERT_TRUE(w.sharded());
    ASSERT_GT(w.shards().size(), 1u);
  }
  archive::ArchiveReader direct(single, {.threads = 2});
  const auto r = region3(3, 5, 2, 9, 8, 7);

  for (const FetchMode fetch : {FetchMode::kPread, FetchMode::kMmap}) {
    ServerConfig cfg = loopback_config(
        fetch == FetchMode::kMmap ? "shard_mmap" : "shard_pread");
    cfg.fetch = fetch;
    Server server(manifest, cfg);
    EXPECT_EQ(server.reader().fetch_mode(), fetch);
    EXPECT_TRUE(server.reader().sharded());
    server.start();
    Client client("loopback", server.endpoint());
    EXPECT_EQ(client.read<float>("lossy32"), direct.read<float>("lossy32"));
    EXPECT_EQ(client.read<double>("lossy64"),
              direct.read<double>("lossy64"));
    EXPECT_EQ(client.read<float>("lossy32", r),
              direct.read<float>("lossy32", r));
    server.stop();
  }
  std::remove(single.c_str());
  std::remove(manifest.c_str());
  for (std::size_t i = 0; i < 64; ++i)
    std::remove(archive::shard_file_name(manifest, i).c_str());
}

TEST(ServeDaemon, TcpRoundTrip) {
  const std::string path = make_archive("tcp.sza");
  ServerConfig cfg = loopback_config("unused");
  cfg.transport = "tcp";
  cfg.endpoint = "127.0.0.1:0";  // ephemeral; resolved by start()
  Server server(path, cfg);
  server.start();
  ASSERT_NE(server.endpoint(), "127.0.0.1:0");

  archive::ArchiveReader direct(path, {.threads = 2});
  Client client("tcp", server.endpoint());
  EXPECT_EQ(client.read<float>("lossy32"), direct.read<float>("lossy32"));
  server.stop();
}

TEST(ServeDaemon, UnixSocketRoundTrip) {
  const std::string path = make_archive("unix.sza");
  ServerConfig cfg = loopback_config("unused");
  cfg.transport = "unix";
  cfg.endpoint = tmp_path("unix.sock");
  Server server(path, cfg);
  server.start();

  archive::ArchiveReader direct(path, {.threads = 2});
  Client client("unix", server.endpoint());
  const auto r = region3(0, 0, 0, 24, 20, 16);
  EXPECT_EQ(client.read<float>("lossy32", r),
            direct.read<float>("lossy32", r));
  server.stop();
}

TEST(ServeDaemon, NotFoundAndWrongDtypeKeepSessionUsable) {
  const std::string path = make_archive("notfound.sza");
  Server server(path, loopback_config("nf"));
  server.start();
  Client client("loopback", server.endpoint());

  EXPECT_THROW((void)client.read<float>("no_such_field"), std::runtime_error);
  EXPECT_THROW((void)client.stat("nope"), std::runtime_error);
  // Reading an f64 field through the f32 accessor throws CLIENT-side (the
  // server happily serves the f64 payload), so it adds no server error.
  EXPECT_THROW((void)client.read<float>("lossy64"), std::runtime_error);
  // An out-of-bounds region is a bad request, not a dead session.
  EXPECT_THROW((void)client.read<float>("lossy32",
                                        region3(20, 0, 0, 10, 2, 2)),
               std::runtime_error);
  // After four rejected requests the same connection still serves.
  EXPECT_EQ(client.read<float>("lossy32").size(), 24u * 20 * 16);
  EXPECT_GE(metric(client.stats(), "requests_error"), 3u);
  server.stop();
}

TEST(ServeDaemon, UnknownOpcodeAnsweredAndSessionSurvives) {
  const std::string path = make_archive("unknownop.sza");
  Server server(path, loopback_config("uo"));
  server.start();
  auto conn = raw_dial(server, "loopback");

  conn->send_all(encode_frame(99, {}));
  const Frame err = recv_frame(*conn);
  EXPECT_EQ(err.kind, kStatusBadRequest);

  // Framing was intact, so the session lives: a valid ls still answers.
  conn->send_all(encode_frame(kOpLs, {}));
  EXPECT_EQ(recv_frame(*conn).kind, kStatusOk);
  server.stop();
}

TEST(ServeDaemon, GarbageStreamGetsErrorThenClose) {
  const std::string path = make_archive("garbage.sza");
  Server server(path, loopback_config("gb"));
  server.start();
  auto conn = raw_dial(server, "loopback");

  const std::string junk = "GET /index.html HTTP/1.1\r\n\r\n";
  conn->send_all({reinterpret_cast<const std::uint8_t*>(junk.data()),
                  junk.size()});
  const Frame err = recv_frame(*conn);
  EXPECT_EQ(err.kind, kStatusBadRequest);
  // After the error frame the server closes: next read is EOF.
  std::uint8_t buf[64];
  EXPECT_EQ(conn->recv_some(buf), 0u);
  server.stop();
}

TEST(ServeDaemon, HostileLengthPrefixRejectedBeforeAllocation) {
  const std::string path = make_archive("hostile.sza");
  Server server(path, loopback_config("hl"));
  server.start();
  auto conn = raw_dial(server, "loopback");

  // Valid magic, 256 MiB claimed body — far over kMaxRequestBody.  The
  // server must answer from the header alone and close.
  std::uint8_t header[kFrameHeaderSize] = {};
  const std::uint32_t magic = kProtocolMagic;
  const std::uint32_t huge = 256u << 20;
  std::memcpy(header, &magic, 4);
  header[4] = kOpReadRegion;
  std::memcpy(header + 6, &huge, 4);
  conn->send_all(header);
  const Frame err = recv_frame(*conn);
  EXPECT_EQ(err.kind, kStatusBadRequest);
  std::uint8_t buf[64];
  EXPECT_EQ(conn->recv_some(buf), 0u);
  server.stop();
}

TEST(ServeDaemon, AbruptDisconnectsNeverWedgeTheServer) {
  const std::string path = make_archive("abrupt.sza");
  Server server(path, loopback_config("ab"));
  server.start();

  // A client that vanishes mid-request (request sent, response never
  // read), one that vanishes mid-frame (half a header), and one that
  // connects and says nothing.
  {
    auto conn = raw_dial(server, "loopback");
    ByteWriter w;
    encode_read_request(ReadRequest{"lossy32", std::nullopt}, w);
    conn->send_all(encode_frame(kOpReadField, w.view()));
    conn->shutdown_both();
  }
  {
    auto conn = raw_dial(server, "loopback");
    const std::uint8_t half[3] = {0x53, 0x5A, 0x52};  // "SZR" of the magic
    conn->send_all(half);
    conn->shutdown_both();
  }
  { auto conn = raw_dial(server, "loopback"); }

  // The server shrugged all three off and serves the next client fully.
  archive::ArchiveReader direct(path, {.threads = 2});
  Client client("loopback", server.endpoint());
  EXPECT_EQ(client.read<float>("lossy32"), direct.read<float>("lossy32"));
  server.stop();
  EXPECT_EQ(metric(server.stats(), "sessions_active"), 0u);
}

TEST(ServeDaemon, SessionTableIsBounded) {
  const std::string path = make_archive("cap.sza");
  ServerConfig cfg = loopback_config("cap");
  cfg.max_sessions = 2;
  Server server(path, cfg);
  server.start();

  Client a("loopback", server.endpoint());
  Client b("loopback", server.endpoint());
  // The third connection is shed at accept: its open handshake sees EOF.
  // Retries are off so the shed shows up as exactly one rejection (the
  // default client would redial and be shed again).
  ClientConfig no_retry;
  no_retry.retries = 0;
  EXPECT_THROW(Client("loopback", server.endpoint(), no_retry),
               std::runtime_error);
  EXPECT_EQ(metric(server.stats(), "sessions_rejected"), 1u);
  // Existing sessions are unaffected by the shed one.
  EXPECT_EQ(a.ls().size(), 2u);
  EXPECT_EQ(b.ls().size(), 2u);
  server.stop();
}

TEST(ServeDaemon, VersionMismatchRejected) {
  const std::string path = make_archive("version.sza");
  Server server(path, loopback_config("ver"));
  server.start();
  auto conn = raw_dial(server, "loopback");

  // Version 1 is the fixed-field stats body: such a peer must be refused
  // at open, not misdecode stats later.
  for (const std::uint16_t version : {std::uint16_t{1},
                                      std::uint16_t(kProtocolVersion + 7)}) {
    ByteWriter w;
    encode_open_request(OpenRequest{version}, w);
    conn->send_all(encode_frame(kOpOpen, w.view()));
    const Frame reply = recv_frame(*conn);
    EXPECT_EQ(reply.kind, kStatusBadRequest);
    EXPECT_EQ(std::string(reply.body.begin(), reply.body.end()),
              "unsupported protocol version " + std::to_string(version));
  }
  server.stop();
}

// The acceptance test for request coalescing: K clients cold-read the SAME
// whole field concurrently.  Single-flight + the double-checked cache probe
// guarantee each of the 18 blocks is preaded+CRC'd+decoded EXACTLY once —
// not once per client — and every client still gets bit-identical data.
TEST(ServeDaemon, ConcurrentOverlappingReadsCoalesceToOneDecodePerBlock) {
  const std::string path = make_archive("coalesce.sza");
  Server server(path, loopback_config("co"));
  server.start();

  archive::ArchiveReader direct(path, {.threads = 2});
  const auto expect32 = direct.read<float>("lossy32");

  constexpr std::size_t kClients = 8;
  std::vector<std::vector<float>> got(kClients);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] {
        Client client("loopback", server.endpoint());
        got[c] = client.read<float>("lossy32");
      });
    for (auto& t : threads) t.join();
  }
  for (const auto& g : got) EXPECT_EQ(g, expect32);

  // 18 unique blocks touched; decodes == 18 regardless of client count.
  EXPECT_EQ(server.reader().blocks_decoded(), 18u);
  const Metrics s = server.stats();
  EXPECT_EQ(metric(s, "blocks_decoded"), 18u);
  // Everything beyond the first decode of a block was served by the
  // single-flight map or the cache, and the split is visible in stats.
  EXPECT_EQ(metric(s, "coalesced_reads") + metric(s, "cache_hits"),
            kClients * 18u - metric(s, "blocks_decoded"));
  server.stop();
}

// Same workload with coalescing disabled: the server must still be correct
// (the cache alone dedups *sequential* repeats), proving the config knob
// actually routes through.
TEST(ServeDaemon, CoalescingKnobIsObservable) {
  const std::string path = make_archive("knob.sza");
  ServerConfig cfg = loopback_config("knob");
  cfg.coalescing = false;
  Server server(path, cfg);
  server.start();
  EXPECT_FALSE(server.reader().coalescing());

  archive::ArchiveReader direct(path, {.threads = 2});
  Client client("loopback", server.endpoint());
  EXPECT_EQ(client.read<float>("lossy32"), direct.read<float>("lossy32"));
  EXPECT_EQ(metric(server.stats(), "coalesced_reads"), 0u);
  server.stop();
}

TEST(ServeDaemon, StopWhileClientsConnectedClosesCleanly) {
  const std::string path = make_archive("stop.sza");
  Server server(path, loopback_config("st"));
  server.start();
  auto conn = raw_dial(server, "loopback");
  conn->send_all(encode_frame(kOpLs, {}));
  (void)recv_frame(*conn);
  server.stop();
  // After stop the peer sees EOF, not a hang.
  std::uint8_t buf[64];
  EXPECT_EQ(conn->recv_some(buf), 0u);
  // stop() is idempotent and restart is not required for destruction.
  server.stop();
}

}  // namespace
}  // namespace sz14::serve
