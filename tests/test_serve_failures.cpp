// Failure-mode suite for the serving stack, every scenario driven
// deterministically through the failpoint registry: transient dial
// failures retried with backoff, black-holed requests hitting the client
// request deadline, recv stalls hitting the timeout, idle sessions reaped
// server-side, and graceful drain finishing in-flight work while refusing
// new connections.  Loopback transport = the same poll-loop code as
// tcp/unix, so these double as the TSan workload for the failure paths.
#include "serve/client.hpp"
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive.hpp"
#include "common/failpoint.hpp"
#include "core/format.hpp"

namespace sz14::serve {
namespace {

struct DisarmAll {
  ~DisarmAll() { fail::disarm_all(); }
};

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "sza_servefail_" + name;
}

std::string make_archive(const std::string& name) {
  const std::string path = tmp_path(name);
  const Dims dims{24, 20, 16};
  std::vector<float> v(dims.count());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<float>(std::sin(0.013 * static_cast<double>(i)));
  archive::ArchiveWriter w(path, {.exec = {.threads = 2}});
  w.append_field("f", v, dims, Dims{8, 8, 8}, "sz14", 1e-4);
  w.finish();
  return path;
}

ServerConfig loopback_config(const std::string& name) {
  ServerConfig cfg;
  cfg.transport = "loopback";
  cfg.endpoint = name;
  cfg.threads = 2;
  return cfg;
}

/// Fast-backoff client config so retry tests don't sleep for real.
ClientConfig quick(unsigned retries, int request_timeout_ms = 2000) {
  ClientConfig cfg;
  cfg.retries = retries;
  cfg.request_timeout_ms = request_timeout_ms;
  cfg.connect_timeout_ms = 2000;
  cfg.backoff_initial_ms = 1;
  cfg.backoff_max_ms = 8;
  return cfg;
}

TEST(ServeFailures, TransientConnectFailuresAreRetriedWithBackoff) {
  DisarmAll guard;
  const std::string path = make_archive("dialretry.sza");
  Server server(path, loopback_config("dialretry"));
  server.start();

  // First two dial attempts fail with an injected connect error; the
  // third (final allowed attempt) goes through and the handshake runs.
  // hits() accumulates process-wide, so assert the delta, not the total.
  const std::uint64_t hits0 = fail::hits("serve.transport.connect");
  fail::arm("serve.transport.connect", {fail::Kind::kError, 0, 2, 0});
  Client client("loopback", server.endpoint(), quick(/*retries=*/2));
  EXPECT_EQ(fail::hits("serve.transport.connect") - hits0, 2u);
  EXPECT_EQ(client.reconnects(), 2u);
  EXPECT_EQ(client.field_count(), 1u);

  server.stop();
  std::remove(path.c_str());
}

TEST(ServeFailures, ConnectFailureWithRetriesExhaustedIsConnectError) {
  DisarmAll guard;
  const std::string path = make_archive("dialfail.sza");
  Server server(path, loopback_config("dialfail"));
  server.start();

  // Every dial fails: 1 attempt + 1 retry, then the typed error
  // surfaces (the CLI maps it to exit code 3).
  const std::uint64_t hits0 = fail::hits("serve.transport.connect");
  fail::arm("serve.transport.connect", {fail::Kind::kError, 0, -1, 0});
  EXPECT_THROW(Client("loopback", server.endpoint(), quick(/*retries=*/1)),
               ConnectError);
  EXPECT_EQ(fail::hits("serve.transport.connect") - hits0, 2u);

  fail::disarm_all();
  server.stop();
  std::remove(path.c_str());
}

TEST(ServeFailures, BlackholedRequestHitsClientDeadline) {
  DisarmAll guard;
  const std::string path = make_archive("blackhole.sza");
  Server server(path, loopback_config("blackhole"));
  server.start();

  Client client("loopback", server.endpoint(),
                quick(/*retries=*/0, /*request_timeout_ms=*/150));

  // The server swallows the next request without answering; with no
  // retries the client must fail by deadline, not hang.
  fail::arm("serve.server.drop_request", {fail::Kind::kDrop, 0, 1, 0});
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.read<float>("f"), TimeoutError);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 100) << "timed out before the deadline";
  EXPECT_LT(elapsed.count(), 2000) << "deadline did not bound the wait";

  server.stop();
  std::remove(path.c_str());
}

TEST(ServeFailures, BlackholedRequestIsReissuedOnFreshConnection) {
  DisarmAll guard;
  const std::string path = make_archive("reissue.sza");
  Server server(path, loopback_config("reissue"));
  server.start();

  archive::ArchiveReader direct(path, {.threads = 1});
  Client client("loopback", server.endpoint(),
                quick(/*retries=*/1, /*request_timeout_ms=*/150));

  // Drop exactly one request.  Reads are idempotent, so the client
  // redials, re-handshakes, reissues — and the caller sees only a
  // slightly slower, bit-identical answer.
  const std::uint64_t hits0 = fail::hits("serve.server.drop_request");
  fail::arm("serve.server.drop_request", {fail::Kind::kDrop, 0, 1, 0});
  EXPECT_EQ(client.read<float>("f"), direct.read<float>("f"));
  EXPECT_EQ(fail::hits("serve.server.drop_request") - hits0, 1u);
  EXPECT_GE(client.reconnects(), 1u);

  server.stop();
  std::remove(path.c_str());
}

TEST(ServeFailures, RecvStallInjectsLatencyWithoutCorruption) {
  DisarmAll guard;
  const std::string path = make_archive("stall.sza");
  Server server(path, loopback_config("stall"));
  server.start();

  archive::ArchiveReader direct(path, {.threads = 1});
  Client client("loopback", server.endpoint(),
                quick(/*retries=*/0, /*request_timeout_ms=*/5000));

  // Stall the next two recvs (one server-side on the request, one
  // client-side on the response) by 120 ms each: the answer must arrive
  // late but complete and bit-identical — slow storage/network is
  // latency, never corruption.  (Deadline *expiry* is covered by the
  // black-hole tests above; a stalled-but-delivered response should
  // NOT time out, because the data is already there when recv looks.)
  fail::arm("serve.transport.recv", {fail::Kind::kStall, 0, 2, 120});
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(client.read<float>("f"), direct.read<float>("f"));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 120) << "stall failpoint did not inject latency";
  fail::disarm_all();

  server.stop();
  std::remove(path.c_str());
}

TEST(ServeFailures, IdleSessionsAreReaped) {
  const std::string path = make_archive("idle.sza");
  ServerConfig cfg = loopback_config("idle");
  cfg.idle_timeout_ms = 50;
  Server server(path, cfg);
  server.start();

  // A connection that never sends a byte must be closed by the server,
  // not pinned in the bounded session table forever.
  auto conn = transport_by_name("loopback")->connect(server.endpoint(), 1000);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (metric(server.stats(), "sessions_idle_reaped") == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(metric(server.stats(), "sessions_idle_reaped"), 1u);

  // The reap is visible client-side as EOF.
  std::uint8_t buf[64];
  EXPECT_EQ(conn->recv_some(buf, 1000), 0u);

  server.stop();
  std::remove(path.c_str());
}

TEST(ServeFailures, ActiveClientsSurviveIdleReaping) {
  const std::string path = make_archive("active.sza");
  ServerConfig cfg = loopback_config("active");
  cfg.idle_timeout_ms = 250;
  Server server(path, cfg);
  server.start();

  archive::ArchiveReader direct(path, {.threads = 1});
  Client client("loopback", server.endpoint(), quick(/*retries=*/0));
  // Keep trickling requests with gaps well under the idle timeout:
  // traffic refreshes the activity clock, so the session must survive.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(client.read<float>("f"), direct.read<float>("f"));
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  EXPECT_EQ(client.reconnects(), 0u);

  server.stop();
  std::remove(path.c_str());
}

TEST(ServeFailures, DrainFinishesInFlightWorkAndRefusesNewConnections) {
  const std::string path = make_archive("drain.sza");
  Server server(path, loopback_config("drain"));
  server.start();

  archive::ArchiveReader direct(path, {.threads = 1});
  const auto want = direct.read<float>("f");

  // A worker thread hammers reads; drain lands somewhere in the middle.
  // Every answer that arrives must be complete and bit-identical — a
  // drain may cut the connection, never truncate a response.
  std::atomic<int> ok{0};
  std::atomic<bool> bad{false};
  std::atomic<bool> done{false};
  std::thread worker([&] {
    try {
      Client client("loopback", server.endpoint(), quick(/*retries=*/0));
      for (int i = 0; i < 10000; ++i) {
        if (client.read<float>("f") != want) {
          bad.store(true);
          break;
        }
        ok.fetch_add(1);
      }
    } catch (const std::exception&) {
      // Expected eventually: the drained server closed the session.
    }
    done.store(true);
  });

  while (ok.load() < 3 && !done.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  server.drain(/*grace_ms=*/5000);
  worker.join();

  EXPECT_FALSE(bad.load()) << "drain truncated or corrupted a response";
  EXPECT_GE(ok.load(), 3);
  // The drained server is down: fresh dials are refused outright.
  EXPECT_ANY_THROW(Client("loopback", server.endpoint(), quick(0)));

  std::remove(path.c_str());
}

TEST(ServeFailures, DrainWithNothingInFlightReturnsPromptly) {
  // Nothing to finish means nothing to wait for: drain must not sleep out
  // its grace budget, with no session and with one idle session alike.
  const std::string path = make_archive("drain_idle.sza");
  for (const bool with_client : {false, true}) {
    Server server(path, loopback_config(with_client ? "drain_idle1"
                                                    : "drain_idle0"));
    server.start();
    std::optional<Client> client;
    if (with_client) {
      client.emplace("loopback", server.endpoint(), quick(0));
      (void)client->ls();  // the session is open and idle
    }
    // Let the event loop settle into its blocking poll, where a drain
    // request has to wake it.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto t0 = std::chrono::steady_clock::now();
    server.drain(/*grace_ms=*/5000);
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    EXPECT_LT(ms, 1000) << (with_client ? "one idle session" : "no session");
  }
  std::remove(path.c_str());
}

TEST(ServeFailures, RemoteAndProtocolErrorsAreNeverRetried) {
  DisarmAll guard;
  const std::string path = make_archive("noretry.sza");
  Server server(path, loopback_config("noretry"));
  server.start();

  Client client("loopback", server.endpoint(), quick(/*retries=*/2));
  const std::uint64_t before = client.reconnects();
  // A server-side rejection is definitive; retrying it would just burn
  // the backoff budget to get the same answer.
  EXPECT_THROW((void)client.read<float>("nosuch"), RemoteError);
  EXPECT_EQ(client.reconnects(), before);
  try {
    (void)client.read<float>("nosuch");
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.status(), kStatusNotFound);
  }

  server.stop();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sz14::serve
